// Unit tests for util: deterministic RNG, string helpers, and filesystem
// wrappers.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace kl {
namespace {

// --- Rng ---------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; i++) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; i++) {
        if (a.next() == b.next()) {
            equal++;
        }
    }
    EXPECT_EQ(equal, 0);
}

TEST(Rng, NextBelowInRangeAndCoversAllValues) {
    Rng rng(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; i++) {
        uint64_t v = rng.next_below(5);
        ASSERT_LT(v, 5u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextBetweenInclusive) {
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; i++) {
        int64_t v = rng.next_between(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; i++) {
        double v = rng.next_double();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
    Rng rng(13);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; i++) {
        double v = rng.next_gaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliProbability) {
    Rng rng(17);
    int heads = 0;
    for (int i = 0; i < 10000; i++) {
        heads += rng.next_bool(0.25);
    }
    EXPECT_NEAR(heads / 10000.0, 0.25, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
    Rng rng(19);
    std::vector<int> items {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> shuffled = items;
    rng.shuffle(shuffled);
    std::vector<int> sorted = shuffled;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, items);
}

TEST(Rng, SplitProducesIndependentStream) {
    Rng parent(23);
    Rng child = parent.split();
    EXPECT_NE(parent.next(), child.next());
}

TEST(Hash, Fnv1aKnownValues) {
    EXPECT_EQ(fnv1a(""), 0xCBF29CE484222325ull);
    EXPECT_NE(fnv1a("a"), fnv1a("b"));
    EXPECT_NE(fnv1a("ab"), fnv1a("ba"));
}

TEST(Hash, CombineOrderDependent) {
    EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

// --- strings -------------------------------------------------------------

TEST(Strings, SplitPreservesEmptyFields) {
    EXPECT_EQ(split("a,,b", ','), (std::vector<std::string> {"a", "", "b"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string> {""}));
    EXPECT_EQ(split("abc", ','), (std::vector<std::string> {"abc"}));
    EXPECT_EQ(split(",", ','), (std::vector<std::string> {"", ""}));
}

TEST(Strings, SplitTrimmedDropsEmpties) {
    EXPECT_EQ(
        split_trimmed(" advec_u , diff_uvw ,, ", ','),
        (std::vector<std::string> {"advec_u", "diff_uvw"}));
}

TEST(Strings, Trim) {
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim("\t\n x y \r"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, Join) {
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, StartsEndsWith) {
    EXPECT_TRUE(starts_with("kernel.cu", "kernel"));
    EXPECT_FALSE(starts_with("k", "kernel"));
    EXPECT_TRUE(ends_with("kernel.cu", ".cu"));
    EXPECT_FALSE(ends_with("cu", ".cu"));
}

TEST(Strings, CaseHelpers) {
    EXPECT_TRUE(iequals("TRUE", "true"));
    EXPECT_FALSE(iequals("true", "tru"));
    EXPECT_EQ(to_lower("AbC-3"), "abc-3");
}

struct GlobCase {
    const char* pattern;
    const char* text;
    bool matches;
};

// Names each case by its values, e.g. `"a?c" rejects "ac"`, so the test
// name is stable from build to build (without it gtest prints pointer bytes).
void PrintTo(const GlobCase& c, std::ostream* os) {
    *os << ::testing::PrintToString(std::string(c.pattern)) << (c.matches ? " matches " : " rejects ")
        << ::testing::PrintToString(std::string(c.text));
}

class GlobMatch: public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobMatch, Behaves) {
    EXPECT_EQ(glob_match(GetParam().pattern, GetParam().text), GetParam().matches);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns,
    GlobMatch,
    ::testing::Values(
        GlobCase {"advec_u", "advec_u", true},
        GlobCase {"advec_u", "advec_v", false},
        GlobCase {"advec_*", "advec_u", true},
        GlobCase {"advec_*", "advec_", true},
        GlobCase {"*", "anything", true},
        GlobCase {"*", "", true},
        GlobCase {"a*c", "abc", true},
        GlobCase {"a*c", "ac", true},
        GlobCase {"a*c", "abd", false},
        GlobCase {"a?c", "abc", true},
        GlobCase {"a?c", "ac", false},
        GlobCase {"*_uvw", "diff_uvw", true},
        GlobCase {"*u*w*", "diff_uvw", true},
        GlobCase {"", "", true},
        GlobCase {"", "x", false}));

TEST(Strings, FormatBytes) {
    EXPECT_EQ(format_bytes(17), "17 B");
    EXPECT_EQ(format_bytes(70'850'000), "70.8 MB");
    EXPECT_EQ(format_bytes(3'312'000'000ull), "3.3 GB");
}

TEST(Strings, FormatDuration) {
    EXPECT_EQ(format_duration(3.0e-6), "3.0 us");
    EXPECT_EQ(format_duration(0.294), "294.0 ms");
    EXPECT_EQ(format_duration(82.3), "82.3 s");
    EXPECT_EQ(format_duration(3600), "60.0 min");
}

// --- fs --------------------------------------------------------------------

TEST(Fs, TextRoundTrip) {
    std::string dir = make_temp_dir("kl-fs-test");
    std::string path = path_join(dir, "file.txt");
    EXPECT_FALSE(file_exists(path));
    write_text_file(path, "hello\nworld");
    EXPECT_TRUE(file_exists(path));
    EXPECT_EQ(read_text_file(path), "hello\nworld");
    EXPECT_EQ(file_size(path), 11u);
    remove_file(path);
    EXPECT_FALSE(file_exists(path));
}

TEST(Fs, BinaryRoundTrip) {
    std::string dir = make_temp_dir("kl-fs-test");
    std::string path = path_join(dir, "blob.bin");
    std::vector<std::byte> data(300);
    for (size_t i = 0; i < data.size(); i++) {
        data[i] = static_cast<std::byte>(i & 0xFF);
    }
    write_binary_file(path, data.data(), data.size());
    EXPECT_EQ(read_binary_file(path), data);
}

TEST(Fs, ListDirectorySortedFilesOnly) {
    std::string dir = make_temp_dir("kl-fs-test");
    write_text_file(path_join(dir, "b.txt"), "b");
    write_text_file(path_join(dir, "a.txt"), "a");
    create_directories(path_join(dir, "subdir"));
    std::vector<std::string> files = list_directory(dir);
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(path_filename(files[0]), "a.txt");
    EXPECT_EQ(path_filename(files[1]), "b.txt");
}

TEST(Fs, ListMissingDirectoryIsEmpty) {
    EXPECT_TRUE(list_directory("/nonexistent/nowhere").empty());
}

TEST(Fs, MissingFileErrors) {
    EXPECT_THROW(read_text_file("/nonexistent/x"), IoError);
    EXPECT_THROW(read_binary_file("/nonexistent/x"), IoError);
    EXPECT_THROW(file_size("/nonexistent/x"), IoError);
}

TEST(Fs, EnvHelper) {
    ::setenv("KL_TEST_ENV_VAR", "value", 1);
    EXPECT_EQ(get_env("KL_TEST_ENV_VAR").value_or(""), "value");
    ::setenv("KL_TEST_ENV_VAR", "", 1);
    EXPECT_FALSE(get_env("KL_TEST_ENV_VAR").has_value());
    ::unsetenv("KL_TEST_ENV_VAR");
    EXPECT_FALSE(get_env("KL_TEST_ENV_VAR").has_value());
}

TEST(Fs, TempDirsAreUnique) {
    std::string a = make_temp_dir("kl-unique");
    std::string b = make_temp_dir("kl-unique");
    EXPECT_NE(a, b);
    EXPECT_TRUE(file_exists(a));
    EXPECT_TRUE(file_exists(b));
}

TEST(Fs, PathJoin) {
    EXPECT_EQ(path_join("a", "b"), "a/b");
    EXPECT_EQ(path_filename("/x/y/z.json"), "z.json");
}

}  // namespace
}  // namespace kl
