// Unit tests for wisdom records, wisdom files, the §4.5 selection
// heuristic, and WisdomSettings (environment parsing, capture patterns).

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdlib>

#include "core/wisdom.hpp"
#include "util/fs.hpp"

namespace kl::core {
namespace {

Config config_of(int bx) {
    Config config;
    config.set("block_size", Value(bx));
    return config;
}

WisdomRecord record(
    ProblemSize problem,
    const std::string& device,
    const std::string& arch,
    int bx,
    double ms = 1.0) {
    WisdomRecord r;
    r.problem_size = problem;
    r.device_name = device;
    r.device_architecture = arch;
    r.config = config_of(bx);
    r.time_seconds = ms * 1e-3;
    r.provenance = make_provenance("test");
    return r;
}

TEST(WisdomRecord, JsonRoundTrip) {
    WisdomRecord r = record(ProblemSize(256, 256, 256), "A100", "Ampere", 128, 0.25);
    WisdomRecord restored = WisdomRecord::from_json(r.to_json());
    EXPECT_EQ(restored.problem_size, r.problem_size);
    EXPECT_EQ(restored.device_name, "A100");
    EXPECT_EQ(restored.device_architecture, "Ampere");
    EXPECT_EQ(restored.config, r.config);
    EXPECT_NEAR(restored.time_seconds, r.time_seconds, 1e-12);
    EXPECT_TRUE(restored.provenance.contains("date"));
    EXPECT_TRUE(restored.provenance.contains("hostname"));
    EXPECT_EQ(restored.provenance["strategy"].as_string(), "test");
}

TEST(WisdomFile, AddKeepsBestPerScenario) {
    WisdomFile wisdom("k");
    wisdom.add(record(ProblemSize(64), "gpu", "Arch", 32, 2.0));
    wisdom.add(record(ProblemSize(64), "gpu", "Arch", 64, 1.0));  // better
    ASSERT_EQ(wisdom.records().size(), 1u);
    EXPECT_EQ(wisdom.records()[0].config, config_of(64));

    wisdom.add(record(ProblemSize(64), "gpu", "Arch", 128, 5.0));  // worse
    EXPECT_EQ(wisdom.records()[0].config, config_of(64));

    wisdom.add(record(ProblemSize(64), "gpu", "Arch", 128, 5.0), /*force=*/true);
    EXPECT_EQ(wisdom.records()[0].config, config_of(128));

    // Different problem size or device appends.
    wisdom.add(record(ProblemSize(128), "gpu", "Arch", 32));
    wisdom.add(record(ProblemSize(64), "gpu2", "Arch", 32));
    EXPECT_EQ(wisdom.records().size(), 3u);
}

TEST(WisdomSelection, HeuristicTiers) {
    // The §4.5 heuristic, tier by tier.
    WisdomFile wisdom("k");
    wisdom.add(record(ProblemSize(256, 256, 256), "A100", "Ampere", 1));
    wisdom.add(record(ProblemSize(512, 512, 512), "A100", "Ampere", 2));
    wisdom.add(record(ProblemSize(250, 250, 250), "A4000", "Ampere", 3));
    wisdom.add(record(ProblemSize(100, 100, 100), "V100", "Volta", 4));

    // 1. Exact device and size.
    auto s = wisdom.select("A100", "Ampere", ProblemSize(256, 256, 256));
    EXPECT_EQ(s.match, WisdomMatch::Exact);
    EXPECT_EQ(s.record->config, config_of(1));
    EXPECT_EQ(s.distance, 0);

    // 2. Same device, nearest size.
    s = wisdom.select("A100", "Ampere", ProblemSize(300, 300, 300));
    EXPECT_EQ(s.match, WisdomMatch::DeviceNearest);
    EXPECT_EQ(s.record->config, config_of(1));  // 256 closer than 512
    s = wisdom.select("A100", "Ampere", ProblemSize(500, 500, 500));
    EXPECT_EQ(s.record->config, config_of(2));

    // 3. Unknown device, same architecture: nearest among Ampere records.
    s = wisdom.select("NVIDIA RTX 3090", "Ampere", ProblemSize(250, 250, 250));
    EXPECT_EQ(s.match, WisdomMatch::ArchNearest);
    EXPECT_EQ(s.record->config, config_of(3));

    // 4. Unknown device and architecture: nearest of all records.
    s = wisdom.select("MI250", "CDNA2", ProblemSize(99, 99, 99));
    EXPECT_EQ(s.match, WisdomMatch::AnyNearest);
    EXPECT_EQ(s.record->config, config_of(4));

    // 5. Empty wisdom: no record.
    WisdomFile empty("k");
    s = empty.select("A100", "Ampere", ProblemSize(1));
    EXPECT_EQ(s.match, WisdomMatch::None);
    EXPECT_EQ(s.record, nullptr);
}

TEST(WisdomSelection, EuclideanDistanceIsPerAxis) {
    WisdomFile wisdom("k");
    wisdom.add(record(ProblemSize(100, 100, 1), "gpu", "A", 1));
    wisdom.add(record(ProblemSize(1, 1, 140), "gpu", "A", 2));
    // Target (1,1,1): the (1,1,140) record is 139 away; (100,100,1) is ~140.
    auto s = wisdom.select("gpu", "A", ProblemSize(1, 1, 1));
    EXPECT_EQ(s.record->config, config_of(2));
    EXPECT_NEAR(s.distance, 139.0, 1e-9);
}

TEST(WisdomSelection, ArchTierSkippedWhenArchUnknown) {
    WisdomFile wisdom("k");
    wisdom.add(record(ProblemSize(10), "other", "Ampere", 7));
    auto s = wisdom.select("unknown-gpu", "", ProblemSize(10));
    EXPECT_EQ(s.match, WisdomMatch::AnyNearest);
}

TEST(WisdomFile, SaveLoadRoundTrip) {
    std::string dir = make_temp_dir("kl-wisdom");
    std::string path = path_join(dir, "k.wisdom.json");
    WisdomFile wisdom("k");
    wisdom.add(record(ProblemSize(256), "A100", "Ampere", 64, 0.5));
    wisdom.add(record(ProblemSize(512), "A4000", "Ampere", 32, 2.5));
    wisdom.save(path);

    WisdomFile loaded = WisdomFile::load(path, "k");
    ASSERT_EQ(loaded.records().size(), 2u);
    EXPECT_EQ(loaded.records()[0].config, config_of(64));
    EXPECT_EQ(loaded.kernel_name(), "k");

    // The on-disk format is human-readable JSON.
    std::string text = read_text_file(path);
    EXPECT_NE(text.find("\"records\""), std::string::npos);
    EXPECT_NE(text.find("\"time_ms\""), std::string::npos);
}

TEST(WisdomFile, SaveReplacesTheFileByRename) {
    // A save writes a temp file and renames it over the old one, so a
    // process killed mid-save leaves the old file whole, never a torn one.
    const std::string dir = make_temp_dir("kl-wisdom");
    const std::string path = path_join(dir, "k.wisdom.json");
    WisdomFile wisdom("k");
    wisdom.add(record(ProblemSize(256), "A100", "Ampere", 64));
    wisdom.save(path);
    struct stat before {};
    ASSERT_EQ(::stat(path.c_str(), &before), 0);

    wisdom.add(record(ProblemSize(512), "A100", "Ampere", 32));
    wisdom.save(path);
    struct stat after {};
    ASSERT_EQ(::stat(path.c_str(), &after), 0);
    EXPECT_NE(after.st_ino, before.st_ino);
    EXPECT_EQ(WisdomFile::load(path, "k").records().size(), 2u);
    EXPECT_EQ(list_directory(dir), std::vector<std::string> {path});  // no .tmp- left
}

TEST(WisdomFile, MissingFileLoadsEmpty) {
    WisdomFile wisdom = WisdomFile::load("/nonexistent/k.wisdom.json", "k");
    EXPECT_TRUE(wisdom.empty());
    EXPECT_EQ(wisdom.kernel_name(), "k");
}

TEST(WisdomFile, WrongKernelNameRejected) {
    std::string dir = make_temp_dir("kl-wisdom");
    std::string path = path_join(dir, "a.wisdom.json");
    WisdomFile("kernel_a").save(path);
    EXPECT_THROW(WisdomFile::load(path, "kernel_b"), Error);
}

TEST(WisdomSettings, FromEnvironment) {
    ::setenv("KERNEL_LAUNCHER_WISDOM", "/tmp/wis", 1);
    ::setenv("KERNEL_LAUNCHER_CAPTURE_DIR", "/tmp/cap", 1);
    ::setenv("KERNEL_LAUNCHER_CAPTURE", "advec_*, diff_uvw", 1);
    WisdomSettings settings = WisdomSettings::from_env();
    ::unsetenv("KERNEL_LAUNCHER_WISDOM");
    ::unsetenv("KERNEL_LAUNCHER_CAPTURE_DIR");
    ::unsetenv("KERNEL_LAUNCHER_CAPTURE");

    EXPECT_EQ(settings.wisdom_dir(), "/tmp/wis");
    EXPECT_EQ(settings.capture_dir(), "/tmp/cap");
    EXPECT_EQ(settings.wisdom_path("advec_u"), "/tmp/wis/advec_u.wisdom.json");
    EXPECT_TRUE(settings.should_capture("advec_u"));
    EXPECT_TRUE(settings.should_capture("advec_v"));
    EXPECT_TRUE(settings.should_capture("diff_uvw"));
    EXPECT_FALSE(settings.should_capture("diff_uv"));
    EXPECT_FALSE(settings.should_capture("other"));
}

TEST(WisdomSettings, DefaultsAndBuilders) {
    WisdomSettings settings;
    EXPECT_EQ(settings.wisdom_dir(), ".");
    EXPECT_FALSE(settings.should_capture("anything"));
    settings.wisdom_dir("/w").capture_dir("/c").capture_pattern("*");
    EXPECT_EQ(settings.wisdom_path("k"), "/w/k.wisdom.json");
    EXPECT_TRUE(settings.should_capture("anything"));
}

TEST(WisdomMatchName, AllValuesNamed) {
    EXPECT_STREQ(wisdom_match_name(WisdomMatch::Exact), "exact");
    EXPECT_STREQ(wisdom_match_name(WisdomMatch::DeviceNearest), "device-nearest");
    EXPECT_STREQ(wisdom_match_name(WisdomMatch::ArchNearest), "arch-nearest");
    EXPECT_STREQ(wisdom_match_name(WisdomMatch::AnyNearest), "any-nearest");
    EXPECT_STREQ(wisdom_match_name(WisdomMatch::None), "none");
}

}  // namespace
}  // namespace kl::core
