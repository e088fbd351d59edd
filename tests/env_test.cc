// The one HYTAP_* knob grammar (common/env.h): unset or empty gives the
// default, flags are case-insensitive 1/on/true/yes and 0/off/false/no,
// numbers must parse completely, anything else gives the default.

#include "common/env.h"

#include <cstdlib>

#include <gtest/gtest.h>

#include "core/retier_daemon.h"

namespace hytap {
namespace {

constexpr char kKnob[] = "HYTAP_ENV_TEST_KNOB";

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv(kKnob); }
  void Set(const char* value) { setenv(kKnob, value, /*overwrite=*/1); }
};

TEST_F(EnvTest, UnsetAndEmptyGiveTheDefault) {
  unsetenv(kKnob);
  EXPECT_TRUE(EnvFlag(kKnob, true));
  EXPECT_FALSE(EnvFlag(kKnob, false));
  EXPECT_EQ(EnvU64(kKnob, 7), 7u);
  EXPECT_EQ(EnvDouble(kKnob, 2.5), 2.5);
  Set("");
  EXPECT_TRUE(EnvFlag(kKnob, true));
  // An empty value is not "on": HYTAP_RETIER_CALIBRATED= stays off.
  EXPECT_FALSE(EnvFlag(kKnob, false));
  EXPECT_EQ(EnvU64(kKnob, 7), 7u);
  EXPECT_EQ(EnvDouble(kKnob, 2.5), 2.5);
}

TEST_F(EnvTest, FlagsAreCaseInsensitive) {
  for (const char* on : {"1", "on", "ON", "On", "true", "TRUE", "yes",
                         "YES"}) {
    Set(on);
    EXPECT_TRUE(EnvFlag(kKnob, false)) << on;
  }
  for (const char* off : {"0", "off", "OFF", "Off", "false", "FALSE", "no",
                          "No"}) {
    Set(off);
    EXPECT_FALSE(EnvFlag(kKnob, true)) << off;
  }
}

TEST_F(EnvTest, UnknownFlagGivesTheDefault) {
  for (const char* junk : {"2", "enable", "offf", " on", "on "}) {
    Set(junk);
    EXPECT_TRUE(EnvFlag(kKnob, true)) << junk;
    EXPECT_FALSE(EnvFlag(kKnob, false)) << junk;
  }
}

TEST_F(EnvTest, NumbersMustParseCompletely) {
  Set("8388608");
  EXPECT_EQ(EnvU64(kKnob, 1), 8388608u);
  Set("0");
  EXPECT_EQ(EnvU64(kKnob, 1), 0u);
  Set("0.25");
  EXPECT_EQ(EnvDouble(kKnob, 1.0), 0.25);
  Set("-1");
  EXPECT_EQ(EnvDouble(kKnob, 1.0), -1.0);
  // A typo is not 0: "8M" would otherwise switch the migration throttle
  // off, "x" would set a zero drift threshold.
  for (const char* junk : {"8M", "x", "12abc", " 5", "1e", "--1"}) {
    Set(junk);
    EXPECT_EQ(EnvU64(kKnob, 99), 99u) << junk;
    EXPECT_EQ(EnvDouble(kKnob, 0.25), 0.25) << junk;
  }
  // Unsigned knobs reject a sign instead of wrapping it; out-of-range and
  // non-finite values fall back as well.
  for (const char* junk : {"-1", "+3", "99999999999999999999999"}) {
    Set(junk);
    EXPECT_EQ(EnvU64(kKnob, 99), 99u) << junk;
  }
  for (const char* junk : {"inf", "nan", "1e999"}) {
    Set(junk);
    EXPECT_EQ(EnvDouble(kKnob, 0.25), 0.25) << junk;
  }
}

TEST_F(EnvTest, RetierKnobsUseTheSharedGrammar) {
  const RetierOptions defaults;
  setenv("HYTAP_RETIER_BYTES_PER_WINDOW", "8M", 1);
  setenv("HYTAP_RETIER_DRIFT", "x", 1);
  setenv("HYTAP_RETIER_CALIBRATED", "", 1);
  setenv("HYTAP_RETIER_PORTFOLIO", "OFF", 1);
  const RetierOptions options = RetierOptions::FromEnv();
  unsetenv("HYTAP_RETIER_BYTES_PER_WINDOW");
  unsetenv("HYTAP_RETIER_DRIFT");
  unsetenv("HYTAP_RETIER_CALIBRATED");
  unsetenv("HYTAP_RETIER_PORTFOLIO");
  EXPECT_EQ(options.bytes_per_window, defaults.bytes_per_window);
  EXPECT_EQ(options.drift_threshold, defaults.drift_threshold);
  EXPECT_FALSE(options.planner.use_calibrated_params);
  EXPECT_FALSE(options.planner.solver.use_portfolio);
  EXPECT_TRUE(defaults.planner.solver.use_portfolio);
}

}  // namespace
}  // namespace hytap
