// kb_tool: inspect, merge, and query SmartML knowledge bases. A deployment
// convenience around the paper's central artifact — teams can pool the
// experience of several SmartML instances by merging their KB files.
//
//   kb_tool stats  kb.txt                  summary statistics
//   kb_tool list   kb.txt                  one line per dataset record
//   kb_tool merge  out.txt in1.txt in2...  merge (best-per-algorithm wins)
//   kb_tool query  kb.txt mf.txt [K]       nominate algorithms for the
//                                          25 meta-features in mf.txt
//   kb_tool json   kb.txt                  dump as JSON (the export format)
//   kb_tool seed   kb.txt [N]              write a synthetic N-record KB
//                                          (scripted durability smoke tests)
//   kb_tool convert IN OUT [binary]        migrate a legacy text KB (or any
//                                          readable KB) to the binary
//                                          snapshot; text is import-only
//   kb_tool compact KB [EPSILON [MAX]]     merge near-duplicates, cap size
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "src/api/json.h"
#include "src/kb/knowledge_base.h"

namespace {

using namespace smartml;

int Stats(const KnowledgeBase& kb) {
  std::printf("records: %zu\n", kb.NumRecords());
  std::map<std::string, std::pair<int, double>> per_algorithm;  // count, best.
  size_t total_results = 0;
  for (const auto& record : kb.SnapshotRecords()) {
    total_results += record.results.size();
    for (const auto& result : record.results) {
      auto& [count, best] = per_algorithm[result.algorithm];
      ++count;
      best = std::max(best, result.accuracy);
    }
  }
  std::printf("stored algorithm results: %zu\n", total_results);
  std::printf("%-16s | %-8s | %s\n", "algorithm", "records", "best acc");
  for (const auto& [algorithm, stats] : per_algorithm) {
    std::printf("%-16s | %-8d | %.4f\n", algorithm.c_str(), stats.first,
                stats.second);
  }
  return 0;
}

int List(const KnowledgeBase& kb) {
  for (const auto& record : kb.SnapshotRecords()) {
    std::string best_algorithm = "-";
    double best = -1;
    for (const auto& result : record.results) {
      if (result.accuracy > best) {
        best = result.accuracy;
        best_algorithm = result.algorithm;
      }
    }
    std::printf("%-24s  %zu algorithms, best %s (%.4f), %g rows x %g feats\n",
                record.dataset_name.c_str(), record.results.size(),
                best_algorithm.c_str(), best, record.meta_features[0],
                record.meta_features[2]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace smartml;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: kb_tool {stats|list|json} KB\n"
                 "       kb_tool merge OUT IN1 [IN2 ...]\n"
                 "       kb_tool query KB METAFEATURES_FILE [K]\n"
                 "       kb_tool seed OUT [N]\n"
                 "       kb_tool convert IN OUT [binary]\n"
                 "       kb_tool compact KB [EPSILON [MAX_RECORDS]]\n");
    return 2;
  }
  const std::string command = argv[1];

  if (command == "seed") {
    const int n = argc > 3 ? atoi(argv[3]) : 8;
    KnowledgeBase kb;
    for (int i = 0; i < n; ++i) {
      KbRecord record;
      record.dataset_name = "seed_" + std::to_string(i);
      record.meta_features[0] = 100.0 + 10.0 * i;  // num_instances
      record.meta_features[2] = 4.0 + i;           // num_features
      KbAlgorithmResult result;
      result.algorithm = i % 2 == 0 ? "random_forest" : "svm";
      result.accuracy = 0.6 + 0.03 * i;
      result.best_config.SetDouble("C", 1.0 + i);
      record.results.push_back(result);
      kb.AddRecord(record);
    }
    const Status status = kb.SaveToFile(argv[2]);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s with %zu records\n", argv[2], kb.NumRecords());
    return 0;
  }

  if (command == "merge") {
    if (argc < 4) {
      std::fprintf(stderr, "merge needs OUT and at least one IN\n");
      return 2;
    }
    KnowledgeBase merged;
    for (int i = 3; i < argc; ++i) {
      auto kb = KnowledgeBase::LoadFromFile(argv[i]);
      if (!kb.ok()) {
        std::fprintf(stderr, "%s: %s\n", argv[i],
                     kb.status().ToString().c_str());
        return 1;
      }
      for (const auto& record : kb->SnapshotRecords()) merged.AddRecord(record);
      std::printf("merged %s (%zu records)\n", argv[i], kb->NumRecords());
    }
    const Status status = merged.SaveToFile(argv[2]);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s with %zu records\n", argv[2], merged.NumRecords());
    return 0;
  }

  auto kb = KnowledgeBase::LoadFromFile(argv[2]);
  if (!kb.ok()) {
    std::fprintf(stderr, "%s\n", kb.status().ToString().c_str());
    return 1;
  }
  if (command == "convert") {
    if (argc < 4) {
      std::fprintf(stderr, "convert needs IN and OUT\n");
      return 2;
    }
    // Input format is sniffed by LoadFromFile; the output is always the
    // binary snapshot (text is an import format only).
    if (argc > 4 && std::string(argv[4]) != "binary") {
      std::fprintf(stderr,
                   "unknown format '%s': convert writes only binary "
                   "(use `kb_tool json` to export)\n",
                   argv[4]);
      return 2;
    }
    const Status status = kb->SaveToFile(argv[3]);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s with %zu records (binary snapshot)\n", argv[3],
                kb->NumRecords());
    return 0;
  }
  if (command == "compact") {
    KbCompactionOptions options;
    if (argc > 3) options.dedup_epsilon = atof(argv[3]);
    if (argc > 4) options.max_records = static_cast<size_t>(atoi(argv[4]));
    const KbCompactionStats stats = kb->Compact(options);
    const Status status = kb->SaveToFile(argv[2]);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("compacted %s: %zu -> %zu records (%zu merged, %zu evicted)\n",
                argv[2], stats.before, stats.after, stats.merged,
                stats.evicted);
    return 0;
  }
  if (command == "stats") return Stats(*kb);
  if (command == "list") return List(*kb);
  if (command == "json") {
    std::printf("%s\n", KbToJson(*kb).c_str());
    return 0;
  }
  if (command == "query") {
    if (argc < 4) {
      std::fprintf(stderr, "query needs a meta-features file\n");
      return 2;
    }
    std::FILE* f = std::fopen(argv[3], "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[3]);
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
    NominationOptions options;
    if (argc > 4) options.max_algorithms = static_cast<size_t>(atoi(argv[4]));
    for (const auto& nomination : kb->Nominate(*mf, options)) {
      std::printf("%-16s score %.4f (%zu warm starts)\n",
                  nomination.algorithm.c_str(), nomination.score,
                  nomination.warm_start_configs.size());
    }
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
