// run_experiment: the CLI equivalent of the paper's web interface
// (Figures 2 & 3). Every option of the experiment-configuration screen has a
// flag; the output is the Figure 3-style experiment report.
//
//   run_experiment --dataset data.csv [--target CLASS] [--budget SECONDS]
//                  [--evals N] [--preprocess center,scale,...]
//                  [--selection-only] [--meta-features FILE]
//                  [--no-ensemble] [--no-interpretability]
//                  [--kb FILE] [--nominations K] [--seed S] [--demo]
//
// As in the paper, the user may submit only a meta-features file
// (--meta-features) for selection-only mode, or a full dataset (csv/arff by
// extension). --demo runs on a built-in synthetic dataset.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/api/json.h"
#include "src/common/logging.h"
#include "src/data/describe.h"
#include "src/common/strings.h"
#include "src/core/smartml.h"
#include "src/data/arff.h"
#include "src/data/csv.h"
#include "src/data/synthetic.h"

namespace {

void Usage() {
  std::printf(
      "usage: run_experiment --dataset FILE.{csv,arff} [options]\n"
      "       run_experiment --meta-features FILE --kb FILE   (selection "
      "only)\n"
      "       run_experiment --demo\n\n"
      "options (the Figure 2 configuration screen):\n"
      "  --dataset FILE         csv or arff dataset (class = last column /\n"
      "                         nominal 'class' attribute)\n"
      "  --target NAME          csv target column name\n"
      "  --budget SECONDS       hyper-parameter tuning time budget "
      "(default 5)\n"
      "  --evals N              cap on fold-evaluations (default 40)\n"
      "  --preprocess OPS       comma list: center,scale,range,zv,boxcox,\n"
      "                         yeojohnson,pca,ica\n"
      "  --feature-selection K  none|variance|correlation|infogain\n"
      "  --topk N               keep top-N features (with infogain)\n"
      "  --include A,B,...      explicit feature include list\n"
      "  --selection-only       stop after algorithm selection\n"
      "  --meta-features FILE   25 space-separated values instead of data\n"
      "  --no-ensemble          disable weighted ensembling\n"
      "  --no-interpretability  disable feature-importance output\n"
      "  --kb FILE              load/save the knowledge base here\n"
      "  --out FILE             also write the result as JSON\n"
      "  --metric M             accuracy|macro_f1|kappa|logloss\n"
      "  --landmarking          add landmark meta-features to KB similarity\n"
      "  --ensemble-strategy S  accuracy|softmax|greedy\n"
      "  --nominations K        algorithms to nominate (default 3)\n"
      "  --seed S               random seed (default 42)\n"
      "  --quiet                suppress the phase trace\n"
      "  --demo                 run on a built-in synthetic dataset\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace smartml;

  std::string dataset_path, target, kb_path, meta_path, preprocess_list;
  std::string json_out;
  bool selection_only = false, demo = false, quiet = false;
  SmartMlOptions options;
  options.time_budget_seconds = 5.0;
  options.max_evaluations = 40;
  options.cv_folds = 2;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--dataset") {
      dataset_path = next();
    } else if (arg == "--target") {
      target = next();
    } else if (arg == "--budget") {
      options.time_budget_seconds = std::atof(next());
    } else if (arg == "--evals") {
      options.max_evaluations = std::atoi(next());
    } else if (arg == "--preprocess") {
      preprocess_list = next();
    } else if (arg == "--feature-selection") {
      auto kind = ParseFeatureSelectorKind(next());
      if (!kind.ok()) {
        std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
        return 2;
      }
      options.feature_selection.kind = *kind;
    } else if (arg == "--topk") {
      options.feature_selection.top_k =
          static_cast<size_t>(std::atoi(next()));
    } else if (arg == "--include") {
      for (const std::string& name : Split(next(), ',')) {
        if (!StripAsciiWhitespace(name).empty()) {
          options.feature_selection.include_features.emplace_back(
              StripAsciiWhitespace(name));
        }
      }
    } else if (arg == "--metric") {
      auto metric = ParseTuneMetric(next());
      if (!metric.ok()) {
        std::fprintf(stderr, "%s\n", metric.status().ToString().c_str());
        return 2;
      }
      options.metric = *metric;
    } else if (arg == "--landmarking") {
      options.use_landmarking = true;
    } else if (arg == "--ensemble-strategy") {
      const std::string strategy = next();
      if (strategy == "accuracy") {
        options.ensemble_strategy =
            SmartMlOptions::EnsembleStrategy::kAccuracyWeighted;
      } else if (strategy == "softmax") {
        options.ensemble_strategy =
            SmartMlOptions::EnsembleStrategy::kSoftmax;
      } else if (strategy == "greedy") {
        options.ensemble_strategy = SmartMlOptions::EnsembleStrategy::kGreedy;
      } else {
        std::fprintf(stderr, "unknown ensemble strategy '%s'\n",
                     strategy.c_str());
        return 2;
      }
    } else if (arg == "--selection-only") {
      selection_only = true;
    } else if (arg == "--meta-features") {
      meta_path = next();
    } else if (arg == "--no-ensemble") {
      options.enable_ensembling = false;
    } else if (arg == "--no-interpretability") {
      options.enable_interpretability = false;
    } else if (arg == "--kb") {
      kb_path = next();
    } else if (arg == "--out") {
      json_out = next();
    } else if (arg == "--nominations") {
      options.max_nominations = static_cast<size_t>(std::atoi(next()));
    } else if (arg == "--seed") {
      options.seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--demo") {
      demo = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n\n", arg.c_str());
      Usage();
      return 2;
    }
  }
  if (!quiet) SetLogLevel(LogLevel::kInfo);
  options.selection_only = selection_only;

  for (const std::string& name : Split(preprocess_list, ',')) {
    if (StripAsciiWhitespace(name).empty()) continue;
    auto op = ParsePreprocessOp(std::string(StripAsciiWhitespace(name)));
    if (!op.ok()) {
      std::fprintf(stderr, "%s\n", op.status().ToString().c_str());
      return 2;
    }
    options.preprocessing.push_back(*op);
  }

  SmartML framework(options);
  if (!kb_path.empty()) {
    const Status status = framework.LoadKnowledgeBase(kb_path);
    if (status.ok()) {
      std::printf("knowledge base loaded: %zu records\n",
                  framework.kb().NumRecords());
    } else {
      std::printf("starting with an empty knowledge base (%s)\n",
                  status.ToString().c_str());
    }
  }

  // Selection-only from a meta-features file (no dataset upload).
  if (!meta_path.empty()) {
    std::FILE* f = std::fopen(meta_path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", meta_path.c_str());
      return 1;
    }
    char buffer[4096];
    const size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, f);
    std::fclose(f);
    buffer[n] = '\0';
    auto mf = MetaFeaturesFromString(buffer);
    if (!mf.ok()) {
      std::fprintf(stderr, "%s\n", mf.status().ToString().c_str());
      return 1;
    }
    const auto nominations = framework.SelectAlgorithms(*mf);
    std::printf("==== SmartML algorithm selection (meta-features only) ====\n");
    if (nominations.empty()) {
      std::printf("knowledge base is empty: no nominations.\n");
    }
    for (const auto& nom : nominations) {
      std::printf("  %-14s score %.4f, %zu stored configurations\n",
                  nom.algorithm.c_str(), nom.score,
                  nom.warm_start_configs.size());
    }
    return 0;
  }

  // Load (or synthesize) the dataset.
  Dataset dataset;
  if (demo) {
    SyntheticSpec spec;
    spec.name = "demo";
    spec.num_instances = 250;
    spec.num_informative = 5;
    spec.num_categorical = 1;
    spec.num_classes = 3;
    spec.class_sep = 1.8;
    spec.seed = options.seed;
    dataset = GenerateSynthetic(spec);
  } else if (!dataset_path.empty()) {
    const std::string lower = AsciiToLower(dataset_path);
    if (lower.size() > 5 && lower.rfind(".arff") == lower.size() - 5) {
      auto loaded = ReadArffFile(dataset_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
        return 1;
      }
      dataset = std::move(*loaded);
    } else {
      CsvOptions csv;
      csv.target_column = target;
      auto loaded = ReadCsvFile(dataset_path, csv);
      if (!loaded.ok()) {
        std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
        return 1;
      }
      dataset = std::move(*loaded);
    }
  } else {
    Usage();
    return 2;
  }
  std::printf("%s\n", DescribeDataset(dataset).c_str());

  auto result = framework.Run(dataset);
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s", result->Report().c_str());

  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "wb");
    if (f != nullptr) {
      const std::string json = ResultToJson(*result);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("JSON report written to %s\n", json_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
    }
  }

  if (!kb_path.empty()) {
    const std::string save_path = KbSnapshotSavePath(kb_path);
    if (save_path != kb_path) {
      std::fprintf(stderr,
                   "warning: %s is a text knowledge base; writing the "
                   "binary snapshot to %s instead of overwriting it\n",
                   kb_path.c_str(), save_path.c_str());
    }
    const Status status = framework.SaveKnowledgeBase(save_path);
    std::printf("knowledge base %s: %s (%zu records)\n",
                status.ok() ? "saved to" : "NOT saved",
                save_path.c_str(), framework.kb().NumRecords());
  }
  return 0;
}
