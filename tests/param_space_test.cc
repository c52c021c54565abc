// Tests for ParamSpace / ParamConfig, including parameterized property
// sweeps over all 15 registered algorithm spaces.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/baselines/autoweka.h"
#include "src/common/rng.h"
#include "src/ml/registry.h"
#include "src/tuning/param_space.h"

namespace smartml {
namespace {

ParamSpace MakeSpace() {
  ParamSpace space;
  space.AddDouble("c", 0.01, 100.0, 1.0, /*log_scale=*/true);
  space.AddInt("k", 1, 50, 5);
  space.AddCategorical("kernel", {"linear", "rbf", "poly"}, "rbf");
  space.AddDouble("gamma", 1e-4, 10.0, 0.1, /*log_scale=*/true);
  space.Condition("gamma", "kernel", {"rbf", "poly"});
  return space;
}

TEST(ParamConfigTest, TypedAccessors) {
  ParamConfig config;
  config.SetDouble("a", 1.5);
  config.SetInt("b", 7);
  config.SetChoice("c", "hello");
  EXPECT_DOUBLE_EQ(config.GetDouble("a", 0), 1.5);
  EXPECT_EQ(config.GetInt("b", 0), 7);
  EXPECT_EQ(config.GetChoice("c", ""), "hello");
  // Cross-type coercion int <-> double.
  EXPECT_DOUBLE_EQ(config.GetDouble("b", 0), 7.0);
  EXPECT_EQ(config.GetInt("a", 0), 2);  // Rounded.
  // Fallbacks.
  EXPECT_DOUBLE_EQ(config.GetDouble("missing", -1), -1.0);
  EXPECT_EQ(config.GetChoice("a", "fb"), "fb");
}

TEST(ParamConfigTest, StringRoundTrip) {
  ParamConfig config;
  config.SetDouble("x", 0.125);
  config.SetInt("n", 42);
  config.SetChoice("mode", "fast");
  auto back = ParamConfig::FromString(config.ToString());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, config);
}

TEST(ParamConfigTest, FromStringErrors) {
  EXPECT_FALSE(ParamConfig::FromString("novalue").ok());
  EXPECT_FALSE(ParamConfig::FromString("=x").ok());
  EXPECT_TRUE(ParamConfig::FromString("").ok());  // Empty config is valid.
}

TEST(ParamSpaceTest, Counts) {
  const ParamSpace space = MakeSpace();
  EXPECT_EQ(space.NumParams(), 4u);
  EXPECT_EQ(space.NumCategorical(), 1u);
  EXPECT_EQ(space.NumNumeric(), 3u);
}

TEST(ParamSpaceTest, DefaultConfigHasAllParams) {
  const ParamSpace space = MakeSpace();
  const ParamConfig config = space.DefaultConfig();
  EXPECT_EQ(config.size(), 4u);
  EXPECT_DOUBLE_EQ(config.GetDouble("c", 0), 1.0);
  EXPECT_EQ(config.GetChoice("kernel", ""), "rbf");
}

TEST(ParamSpaceTest, SamplesStayInBounds) {
  const ParamSpace space = MakeSpace();
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const ParamConfig config = space.Sample(&rng);
    const double c = config.GetDouble("c", -1);
    EXPECT_GE(c, 0.01);
    EXPECT_LE(c, 100.0);
    const int64_t k = config.GetInt("k", -1);
    EXPECT_GE(k, 1);
    EXPECT_LE(k, 50);
    const std::string kernel = config.GetChoice("kernel", "");
    EXPECT_TRUE(kernel == "linear" || kernel == "rbf" || kernel == "poly");
  }
}

TEST(ParamSpaceTest, LogScaleSamplingCoversDecades) {
  ParamSpace space;
  space.AddDouble("x", 1e-4, 1e4, 1.0, /*log_scale=*/true);
  Rng rng(2);
  int low = 0, high = 0;
  for (int i = 0; i < 2000; ++i) {
    const double v = space.Sample(&rng).GetDouble("x", 0);
    if (v < 1e-2) ++low;
    if (v > 1e2) ++high;
  }
  // Log-uniform: each 2-decade band holds ~25%.
  EXPECT_GT(low, 300);
  EXPECT_GT(high, 300);
}

TEST(ParamSpaceTest, NeighborChangesConfiguration) {
  const ParamSpace space = MakeSpace();
  Rng rng(3);
  const ParamConfig base = space.DefaultConfig();
  int changed = 0;
  for (int i = 0; i < 100; ++i) {
    const ParamConfig next = space.Neighbor(base, &rng);
    if (!(next == base)) ++changed;
  }
  EXPECT_GT(changed, 80);
}

TEST(ParamSpaceTest, NeighborStaysInBounds) {
  const ParamSpace space = MakeSpace();
  Rng rng(5);
  ParamConfig cursor = space.DefaultConfig();
  for (int i = 0; i < 300; ++i) {
    cursor = space.Neighbor(cursor, &rng);
    EXPECT_GE(cursor.GetDouble("c", -1), 0.01 - 1e-12);
    EXPECT_LE(cursor.GetDouble("c", -1), 100.0 + 1e-12);
    EXPECT_GE(cursor.GetInt("k", -1), 1);
    EXPECT_LE(cursor.GetInt("k", -1), 50);
  }
}

TEST(ParamSpaceTest, ConditionalActivation) {
  const ParamSpace space = MakeSpace();
  const ParamSpec* gamma = space.Find("gamma");
  ASSERT_NE(gamma, nullptr);
  ParamConfig config = space.DefaultConfig();
  config.SetChoice("kernel", "rbf");
  EXPECT_TRUE(space.IsActive(*gamma, config));
  config.SetChoice("kernel", "linear");
  EXPECT_FALSE(space.IsActive(*gamma, config));
}

TEST(ParamSpaceTest, EncodeWidthAndRanges) {
  const ParamSpace space = MakeSpace();
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const ParamConfig config = space.Sample(&rng);
    const std::vector<double> enc = space.Encode(config);
    ASSERT_EQ(enc.size(), 4u);
    // Numeric dims in [0,1] (or -1 if conditionally inactive).
    EXPECT_GE(enc[0], 0.0);
    EXPECT_LE(enc[0], 1.0);
    EXPECT_TRUE(enc[3] == -1.0 || (enc[3] >= 0.0 && enc[3] <= 1.0));
  }
}

TEST(ParamSpaceTest, EncodeInactiveIsMinusOne) {
  const ParamSpace space = MakeSpace();
  ParamConfig config = space.DefaultConfig();
  config.SetChoice("kernel", "linear");
  const std::vector<double> enc = space.Encode(config);
  EXPECT_DOUBLE_EQ(enc[3], -1.0);  // gamma inactive.
}

TEST(ParamSpaceTest, RepairClampsAndFills) {
  const ParamSpace space = MakeSpace();
  ParamConfig bad;
  bad.SetDouble("c", 1e9);
  bad.SetInt("k", -100);
  bad.SetChoice("kernel", "bogus");
  bad.SetChoice("unknown_key", "x");
  const ParamConfig fixed = space.Repair(bad);
  EXPECT_DOUBLE_EQ(fixed.GetDouble("c", 0), 100.0);
  EXPECT_EQ(fixed.GetInt("k", 0), 1);
  EXPECT_EQ(fixed.GetChoice("kernel", ""), "rbf");
  EXPECT_FALSE(fixed.Has("unknown_key"));
  EXPECT_TRUE(fixed.Has("gamma"));  // Filled with default.
}

// ---------------------------------------------------------------------------
// Property sweep across all 15 registered algorithm spaces.
// ---------------------------------------------------------------------------

class AlgorithmSpaceTest : public testing::TestWithParam<std::string> {};

TEST_P(AlgorithmSpaceTest, SpaceMatchesTable3Counts) {
  const std::string algo = GetParam();
  auto space = SpaceFor(algo);
  ASSERT_TRUE(space.ok());
  const AlgorithmInfo* info = nullptr;
  for (const auto& a : AllAlgorithms()) {
    if (a.name == algo) info = &a;
  }
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(space->NumCategorical(), info->categorical_params)
      << algo << ": categorical parameter count must match Table 3";
  EXPECT_EQ(space->NumNumeric(), info->numerical_params)
      << algo << ": numeric parameter count must match Table 3";
}

TEST_P(AlgorithmSpaceTest, SamplesRepairToThemselves) {
  auto space = SpaceFor(GetParam());
  ASSERT_TRUE(space.ok());
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const ParamConfig config = space->Sample(&rng);
    const ParamConfig repaired = space->Repair(config);
    EXPECT_TRUE(repaired == config) << GetParam();
  }
}

TEST_P(AlgorithmSpaceTest, DefaultConfigSerializes) {
  auto space = SpaceFor(GetParam());
  ASSERT_TRUE(space.ok());
  const ParamConfig config = space->DefaultConfig();
  auto back = ParamConfig::FromString(config.ToString());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == config) << GetParam();
}

TEST_P(AlgorithmSpaceTest, EncodeIsStableWidth) {
  auto space = SpaceFor(GetParam());
  ASSERT_TRUE(space.ok());
  Rng rng(13);
  const size_t width = space->Encode(space->DefaultConfig()).size();
  EXPECT_EQ(width, space->NumParams());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(space->Encode(space->Sample(&rng)).size(), width);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmSpaceTest,
                         testing::ValuesIn(AllAlgorithmNames()),
                         [](const auto& info) { return info.param; });

TEST(ParamSpaceRowTest, RowOperationsMatchConfigOperations) {
  // Every learner space plus the joint space: sampling, neighbour moves and
  // encoding on rows draw the same numbers and give the same configs and
  // encodings as the ParamConfig operations.
  std::vector<ParamSpace> spaces;
  for (const std::string& name : AllAlgorithmNames()) {
    auto space = SpaceFor(name);
    ASSERT_TRUE(space.ok());
    spaces.push_back(*space);
  }
  auto joint = BuildCashSpace(AllAlgorithmNames());
  ASSERT_TRUE(joint.ok());
  spaces.push_back(*joint);
  for (size_t s = 0; s < spaces.size(); ++s) {
    const ParamSpace& space = spaces[s];
    Rng config_rng(s + 1), row_rng(s + 1);
    std::vector<double> row(space.NumParams()), next(space.NumParams());
    std::vector<double> enc(space.NumParams());
    ParamConfig config;
    for (int i = 0; i < 200; ++i) {
      if (i % 10 == 0) {
        config = space.Sample(&config_rng);
        space.SampleRow(&row_rng, row.data());
      } else {
        config = space.Neighbor(config, &config_rng);
        space.NeighborRow(row.data(), next.data(), &row_rng);
        row = next;
      }
      ASSERT_EQ(space.FromRow(row.data()), config) << s << " step " << i;
      ASSERT_EQ(space.ToRow(config), row) << s << " step " << i;
      space.EncodeRow(row.data(), enc.data());
      ASSERT_EQ(space.Encode(config), enc) << s << " step " << i;
    }
    EXPECT_EQ(config_rng.NextU64(), row_rng.NextU64()) << s;
  }
}

TEST(ParamSpaceRowTest, FiniteSizeCountsIntsAndChoices) {
  EXPECT_EQ(SpaceFor("plsda")->FiniteSize(), 24u);
  EXPECT_EQ(SpaceFor("knn")->FiniteSize(), 50u);
  EXPECT_EQ(SpaceFor("lmt")->FiniteSize(), 116u);
  EXPECT_EQ(MakeSpace().FiniteSize(), 0u);  // Has double specs.
  ParamSpace conditional;
  conditional.AddCategorical("mode", {"a", "b", "c"}, "a");
  conditional.AddInt("k", -2, 2, 0);
  conditional.Condition("k", "mode", {"b"});  // Inactive values still count.
  EXPECT_EQ(conditional.FiniteSize(), 15u);
  EXPECT_EQ(ParamSpace().FiniteSize(), 1u);
}

}  // namespace
}  // namespace smartml
