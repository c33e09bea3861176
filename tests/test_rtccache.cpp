// Unit tests for the persistent compile cache (src/rtccache/,
// docs/CACHING.md): key derivation and invalidation, entry round-trips,
// mode gating, corruption quarantine, LRU eviction, concurrent writers,
// and the WisdomKernel wiring (disk-hit path, disk_hits/disk_misses stats).

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/kernel_launcher.hpp"
#include "nvrtcsim/registry.hpp"
#include "rtccache/rtccache.hpp"
#include "trace/trace.hpp"
#include "util/fs.hpp"

namespace kl::rtccache {
namespace {

using core::Config;
using core::KernelBuilder;
using core::KernelCompiler;
using core::KernelSource;
using core::ProblemSize;
using core::Value;
using core::WisdomKernel;
using core::WisdomSettings;

KernelBuilder vector_add_builder() {
    rtc::register_builtin_kernels();
    KernelBuilder builder(
        "vector_add",
        KernelSource::inline_source("vector_add.cu", rtc::builtin_kernel_source("vector_add")));
    core::Expr block_size = builder.tune("block_size", {32, 64, 128, 256});
    builder.problem_size(core::arg3).template_args(block_size).block_size(block_size);
    return builder;
}

/// One compiled vector_add instance plus the CacheKey of its lowered
/// request, the way WisdomKernel::build_instance derives it.
struct CompiledKernel {
    CacheKey key;
    KernelCompiler::Output output;
};

CompiledKernel compile_vector_add(const sim::Context& context, int block_size = 32) {
    core::KernelDef def = vector_add_builder().build();
    Config config;
    config.set("block_size", Value(block_size));
    ProblemSize problem(1000);
    KernelCompiler::Lowered lowered =
        KernelCompiler::lower(def, config, context.device(), &problem);
    CompiledKernel out;
    out.key = CacheKey {
        def.name,
        context.device().architecture,
        lowered.source,
        lowered.options,
        lowered.name_expression};
    out.output = KernelCompiler::compile_lowered(def, lowered);
    return out;
}

struct Fixture {
    std::string cache_dir = make_temp_dir("kl-rtccache");
    std::string wisdom_dir = make_temp_dir("kl-rtccache-wisdom");
    std::unique_ptr<sim::Context> context = sim::Context::create("NVIDIA RTX A4000");

    Settings settings(Mode mode = Mode::ReadWrite) {
        Settings s;
        s.mode = mode;
        s.dir = cache_dir;
        return s;
    }

    WisdomSettings wisdom_settings(Mode mode) {
        return WisdomSettings()
            .wisdom_dir(wisdom_dir)
            .capture_dir(wisdom_dir)
            .cache_mode(mode)
            .cache_dir(cache_dir);
    }

    /// Basenames of the entry files currently in the cache directory.
    std::vector<std::string> entry_files() {
        std::vector<std::string> out;
        for (const std::string& path : list_directory(cache_dir)) {
            const std::string name = path_filename(path);
            if (name.rfind("klc-", 0) == 0) {
                out.push_back(name);
            }
        }
        return out;
    }
};

TEST(RtcCacheSettings, ParseMode) {
    EXPECT_EQ(parse_mode("off"), Mode::Off);
    EXPECT_EQ(parse_mode("0"), Mode::Off);
    EXPECT_EQ(parse_mode("Read"), Mode::Read);
    EXPECT_EQ(parse_mode("ro"), Mode::Read);
    EXPECT_EQ(parse_mode("readwrite"), Mode::ReadWrite);
    EXPECT_EQ(parse_mode(" RW "), Mode::ReadWrite);
    EXPECT_EQ(parse_mode("1"), Mode::ReadWrite);
    EXPECT_THROW(parse_mode("sideways"), Error);
}

TEST(RtcCacheSettings, ParseByteLimit) {
    EXPECT_EQ(parse_byte_limit("1048576"), 1048576u);
    EXPECT_EQ(parse_byte_limit("4k"), 4096u);
    EXPECT_EQ(parse_byte_limit("256M"), 256ull << 20);
    EXPECT_EQ(parse_byte_limit("1GiB"), 1ull << 30);
    EXPECT_EQ(parse_byte_limit("2 kb"), 2048u);
    EXPECT_THROW(parse_byte_limit("lots"), Error);
    EXPECT_THROW(parse_byte_limit("12q"), Error);
    // Overflow is rejected, never wrapped: 2^34 GiB would be 0 bytes.
    EXPECT_EQ(parse_byte_limit("18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parse_byte_limit("17179869183G"), 17179869183ull << 30);
    for (const char* text : {"99999999999999999999999", "18446744073709551616", "17179869184G"}) {
        try {
            parse_byte_limit(text);
            ADD_FAILURE() << text << " was accepted";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(text), std::string::npos) << e.what();
            // The value may come from the command line: only
            // Settings::from_env names the environment variable.
            EXPECT_EQ(std::string(e.what()).find("KERNEL_LAUNCHER"), std::string::npos)
                << e.what();
        }
    }
}

TEST(RtcCacheKey, StableAndInvalidatedByEveryField) {
    CacheKey key {"vector_add", "Ampere", "__global__ void f();", {"-Da=1", "-O3"}, "f<32>"};
    const uint64_t base = key.hash();
    EXPECT_EQ(base, CacheKey(key).hash());  // deterministic
    EXPECT_EQ(key.id(), "klc-" + key.id().substr(4));
    EXPECT_EQ(key.id().size(), 4u + 16u);

    CacheKey changed = key;
    changed.kernel_name = "vector_sub";
    EXPECT_NE(changed.hash(), base);
    changed = key;
    changed.device_arch = "Volta";
    EXPECT_NE(changed.hash(), base);
    changed = key;
    changed.source += "\n// edited";
    EXPECT_NE(changed.hash(), base);
    changed = key;
    changed.options = {"-Da=2", "-O3"};
    EXPECT_NE(changed.hash(), base);
    changed = key;
    changed.options = {"-O3", "-Da=1"};  // order is part of the request
    EXPECT_NE(changed.hash(), base);
    changed = key;
    changed.name_expression = "f<64>";
    EXPECT_NE(changed.hash(), base);
}

TEST(RtcCacheKey, LengthFramedFields) {
    CacheKey a {"k", "arch", "src", {"ab", "c"}, ""};
    CacheKey b {"k", "arch", "src", {"a", "bc"}, ""};
    EXPECT_NE(a.hash(), b.hash());
}

TEST(RtcCache, StoreLoadRoundTrip) {
    Fixture fx;
    CompiledKernel compiled = compile_vector_add(*fx.context, 64);
    DiskCache cache(fx.settings());

    EXPECT_FALSE(cache.load(compiled.key).has_value());
    cache.store(
        compiled.key, compiled.output.image, compiled.output.log,
        compiled.output.compile_seconds);
    ASSERT_TRUE(file_exists(cache.entry_path(compiled.key)));

    std::optional<CachedResult> hit = cache.load(compiled.key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->image.name, "vector_add");
    EXPECT_EQ(hit->image.lowered_name, compiled.output.image.lowered_name);
    EXPECT_EQ(hit->image.arch, compiled.output.image.arch);
    EXPECT_EQ(hit->image.ptx, compiled.output.image.ptx);
    EXPECT_EQ(hit->image.registers_per_thread, compiled.output.image.registers_per_thread);
    EXPECT_EQ(hit->image.element_size, compiled.output.image.element_size);
    EXPECT_TRUE(static_cast<bool>(hit->image.impl));  // re-resolved from the registry
    EXPECT_EQ(hit->log, compiled.output.log);
    EXPECT_DOUBLE_EQ(hit->modeled_compile_seconds, compiled.output.compile_seconds);
    EXPECT_GT(hit->entry_bytes, 0u);
    // The modeled read is orders of magnitude below the modeled compile.
    EXPECT_LT(disk_read_seconds(hit->entry_bytes), compiled.output.compile_seconds / 10);
}

TEST(RtcCache, ModeGating) {
    Fixture fx;
    CompiledKernel compiled = compile_vector_add(*fx.context);

    DiskCache off(fx.settings(Mode::Off));
    EXPECT_FALSE(off.readable());
    EXPECT_FALSE(off.writable());
    off.store(compiled.key, compiled.output.image, "", 0.1);
    EXPECT_TRUE(fx.entry_files().empty());

    DiskCache read(fx.settings(Mode::Read));
    EXPECT_TRUE(read.readable());
    EXPECT_FALSE(read.writable());
    read.store(compiled.key, compiled.output.image, "", 0.1);
    EXPECT_TRUE(fx.entry_files().empty());
    EXPECT_FALSE(read.load(compiled.key).has_value());

    DiskCache rw(fx.settings(Mode::ReadWrite));
    rw.store(compiled.key, compiled.output.image, "", 0.1);
    EXPECT_EQ(fx.entry_files().size(), 1u);
    EXPECT_TRUE(read.load(compiled.key).has_value());
    EXPECT_FALSE(off.load(compiled.key).has_value());
}

TEST(RtcCache, CorruptedEntryIsQuarantinedAndMisses) {
    Fixture fx;
    CompiledKernel compiled = compile_vector_add(*fx.context);
    DiskCache cache(fx.settings());
    cache.store(compiled.key, compiled.output.image, "", 0.1);

    const std::string path = cache.entry_path(compiled.key);
    write_text_file(path, "this is not an entry {{{");
    EXPECT_FALSE(cache.load(compiled.key).has_value());
    EXPECT_FALSE(file_exists(path));  // moved aside, cannot fail twice
    EXPECT_EQ(DiskCache::stats(fx.cache_dir).quarantined, 1u);

    // The slot is reusable: a recompile stores and hits again.
    cache.store(compiled.key, compiled.output.image, "", 0.1);
    EXPECT_TRUE(cache.load(compiled.key).has_value());
}

TEST(RtcCache, ChecksumMismatchIsQuarantined) {
    Fixture fx;
    CompiledKernel compiled = compile_vector_add(*fx.context);
    DiskCache cache(fx.settings());
    cache.store(compiled.key, compiled.output.image, "", 0.1);

    // Flip one payload byte: still valid JSON, wrong checksum.
    const std::string path = cache.entry_path(compiled.key);
    std::string text = read_text_file(path);
    const size_t pos = text.find("\"registers_per_thread\"");
    ASSERT_NE(pos, std::string::npos);
    const size_t digit = text.find_first_of("0123456789", pos + 22);
    ASSERT_NE(digit, std::string::npos);
    text[digit] = text[digit] == '9' ? '8' : '9';
    write_text_file(path, text);

    EXPECT_FALSE(cache.load(compiled.key).has_value());
    EXPECT_EQ(DiskCache::stats(fx.cache_dir).quarantined, 1u);
}

TEST(RtcCache, UnregisteredKernelIsAMiss) {
    Fixture fx;
    CompiledKernel compiled = compile_vector_add(*fx.context);
    compiled.key.kernel_name = "kernel_that_nobody_registered";
    DiskCache cache(fx.settings());
    cache.store(compiled.key, compiled.output.image, "", 0.1);
    EXPECT_FALSE(cache.load(compiled.key).has_value());
    // Not corruption: the entry stays where it is for a process that does
    // register the family.
    EXPECT_EQ(DiskCache::stats(fx.cache_dir).quarantined, 0u);
    EXPECT_EQ(fx.entry_files().size(), 1u);
}

TEST(RtcCache, LruEvictionKeepsNewestUnderLimit) {
    Fixture fx;
    DiskCache cache(fx.settings());
    std::vector<CacheKey> keys;
    uint64_t entry_bytes = 0;
    for (int block : {32, 64, 128, 256}) {
        CompiledKernel compiled = compile_vector_add(*fx.context, block);
        cache.store(compiled.key, compiled.output.image, "", 0.1);
        entry_bytes = file_size(cache.entry_path(compiled.key));
        keys.push_back(std::move(compiled.key));
        // mtime is the LRU order; keep the stores distinguishable.
        std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
    ASSERT_EQ(fx.entry_files().size(), 4u);

    // Room for roughly two entries: the two oldest go.
    const size_t evicted = DiskCache::prune(fx.cache_dir, entry_bytes * 5 / 2);
    EXPECT_EQ(evicted, 2u);
    EXPECT_FALSE(cache.load(keys[0]).has_value());
    EXPECT_FALSE(cache.load(keys[1]).has_value());
    EXPECT_TRUE(cache.load(keys[2]).has_value());
    EXPECT_TRUE(cache.load(keys[3]).has_value());
}

TEST(RtcCache, StoreEnforcesTheLimit) {
    Fixture fx;
    CompiledKernel first = compile_vector_add(*fx.context, 32);
    DiskCache probe(fx.settings());
    probe.store(first.key, first.output.image, "", 0.1);
    const uint64_t entry_bytes = file_size(probe.entry_path(first.key));
    std::this_thread::sleep_for(std::chrono::milliseconds(15));

    // Room for roughly one and a half entries: the second store evicts the
    // first on its way out.
    Settings settings = fx.settings();
    settings.limit_bytes = entry_bytes + entry_bytes / 2;
    DiskCache cache(settings);
    CompiledKernel second = compile_vector_add(*fx.context, 64);
    cache.store(second.key, second.output.image, "", 0.1);
    EXPECT_EQ(fx.entry_files().size(), 1u);
    EXPECT_TRUE(cache.load(second.key).has_value());
    EXPECT_FALSE(cache.load(first.key).has_value());
}

TEST(RtcCache, ClearRemovesEverything) {
    Fixture fx;
    DiskCache cache(fx.settings());
    for (int block : {32, 64}) {
        CompiledKernel compiled = compile_vector_add(*fx.context, block);
        cache.store(compiled.key, compiled.output.image, "", 0.1);
    }
    CompiledKernel corrupt = compile_vector_add(*fx.context, 128);
    cache.store(corrupt.key, corrupt.output.image, "", 0.1);
    write_text_file(cache.entry_path(corrupt.key), "garbage");
    EXPECT_FALSE(cache.load(corrupt.key).has_value());  // quarantines

    EXPECT_EQ(DiskCache::clear(fx.cache_dir), 3u);  // 2 entries + 1 quarantined
    EXPECT_TRUE(fx.entry_files().empty());
    DiskCache::DirStats stats = DiskCache::stats(fx.cache_dir);
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.quarantined, 0u);
}

TEST(RtcCache, ConcurrentWritersAndReaders) {
    Fixture fx;
    std::vector<CompiledKernel> compiled;
    for (int block : {32, 64, 128, 256}) {
        compiled.push_back(compile_vector_add(*fx.context, block));
    }
    const Settings settings = fx.settings();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
        threads.emplace_back([&, t] {
            DiskCache cache(settings);
            for (int i = 0; i < 8; i++) {
                const CompiledKernel& k = compiled[(t + i) % compiled.size()];
                cache.store(k.key, k.output.image, "", 0.1);
                cache.load(k.key);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    // Every surviving entry is intact: atomic writes mean no torn files.
    for (const DiskCache::EntryInfo& info : DiskCache::scan(fx.cache_dir)) {
        EXPECT_TRUE(info.valid) << info.path << ": " << info.error;
    }
    DiskCache reader(settings);
    for (const CompiledKernel& k : compiled) {
        EXPECT_TRUE(reader.load(k.key).has_value());
    }
}

// ---- WisdomKernel wiring ----

TEST(RtcCacheWisdomKernel, WarmStartSkipsCompile) {
    Fixture fx;
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);

    // Process 1 (cold): compiles and populates the cache.
    {
        WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::ReadWrite));
        const core::LaunchOutcome cold = kernel.launch(c, a, b, n);
        EXPECT_TRUE(cold.cold);
        WisdomKernel::Stats stats = kernel.stats();
        EXPECT_EQ(stats.disk_hits, 0u);
        EXPECT_EQ(stats.disk_misses, 1u);
        EXPECT_GT(cold.overhead.compile_seconds, 0.1);
        EXPECT_EQ(cold.overhead.cache_seconds, 0.0);
    }
    ASSERT_EQ(fx.entry_files().size(), 1u);

    // Process 2 (warm): a fresh kernel object hits the disk entry; the
    // first launch never runs nvrtc.
    WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::ReadWrite));
    EXPECT_EQ(kernel.stats().compiles_started, 0u);
    const core::LaunchOutcome first = kernel.launch(c, a, b, n);
    EXPECT_TRUE(first.cold);
    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.disk_hits, 1u);
    EXPECT_EQ(stats.disk_misses, 0u);
    const core::OverheadBreakdown& warm = first.overhead;
    EXPECT_EQ(warm.compile_seconds, 0.0);
    EXPECT_GT(warm.cache_seconds, 0.0);
    EXPECT_LT(warm.cache_seconds, 0.05);
    EXPECT_TRUE(kernel.cached_build_overhead(core::ProblemSize(n)).has_value());

    // The launch result is identical to the compiled one.
    EXPECT_EQ(fx.context->last_launch().kernel_name, "vector_add<32>");
}

TEST(RtcCacheWisdomKernel, ReadModeNeverWrites) {
    Fixture fx;
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);
    WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::Read));
    kernel.launch(c, a, b, n);
    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.disk_misses, 1u);
    EXPECT_TRUE(fx.entry_files().empty());
}

TEST(RtcCacheWisdomKernel, OffModeCountsNothing) {
    Fixture fx;
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);
    WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::Off));
    kernel.launch(c, a, b, n);
    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.disk_hits, 0u);
    EXPECT_EQ(stats.disk_misses, 0u);
    EXPECT_TRUE(fx.entry_files().empty());
}

TEST(RtcCacheWisdomKernel, CorruptedEntryNeverAbortsALaunch) {
    Fixture fx;
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);
    {
        WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::ReadWrite));
        kernel.launch(c, a, b, n);
    }
    std::vector<std::string> entries = fx.entry_files();
    ASSERT_EQ(entries.size(), 1u);
    write_text_file(path_join(fx.cache_dir, entries[0]), "{\"oops\": true}");

    WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::ReadWrite));
    ASSERT_NO_THROW(kernel.launch(c, a, b, n));
    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.disk_hits, 0u);
    EXPECT_EQ(stats.disk_misses, 1u);
    // The damaged entry was quarantined and the recompile re-stored it.
    EXPECT_EQ(DiskCache::stats(fx.cache_dir).quarantined, 1u);
    EXPECT_EQ(fx.entry_files().size(), 1u);

    WisdomKernel again(vector_add_builder(), fx.wisdom_settings(Mode::ReadWrite));
    again.launch(c, a, b, n);
    EXPECT_EQ(again.stats().disk_hits, 1u);
}

TEST(RtcCacheWisdomKernel, ConfigChangeInvalidatesTheEntry) {
    Fixture fx;
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);
    {
        // Populate under the default configuration (block_size 32).
        WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::ReadWrite));
        kernel.launch(c, a, b, n);
    }

    // Tuning produced a different configuration: the lowered request (and
    // so the cache key) changes, and the stale entry must not be used.
    {
        std::string path = path_join(fx.wisdom_dir, "vector_add.wisdom.json");
        core::WisdomFile wisdom = core::WisdomFile::load(path, "vector_add");
        core::WisdomRecord record;
        record.problem_size = core::ProblemSize(n);
        record.device_name = "NVIDIA RTX A4000";
        record.device_architecture = "Ampere";
        Config config;
        config.set("block_size", Value(128));
        record.config = config;
        record.time_seconds = 1e-3;
        wisdom.add(record, /*force=*/true);
        wisdom.save(path);
    }

    WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::ReadWrite));
    kernel.launch(c, a, b, n);
    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.disk_hits, 0u);
    EXPECT_EQ(stats.disk_misses, 1u);
    EXPECT_EQ(fx.context->last_launch().kernel_name, "vector_add<128>");
    EXPECT_EQ(fx.entry_files().size(), 2u);  // both instantiations now cached
}

TEST(RtcCacheWisdomKernel, HitReplacesTheCompileSpanInTheTrace) {
    Fixture fx;
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);
    {
        WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::ReadWrite));
        kernel.launch(c, a, b, n);
    }

    trace::set_mode(trace::Mode::Full);
    trace::clear();
    WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::ReadWrite));
    kernel.launch(c, a, b, n);

    size_t compile_spans = 0;
    size_t cache_read_spans = 0;
    for (const trace::TraceEvent& event : trace::events_snapshot()) {
        if (event.name == "nvrtc.compile") {
            compile_spans++;
        }
        if (event.name == "cache.disk.read") {
            cache_read_spans++;
        }
    }
    EXPECT_EQ(compile_spans, 0u);  // the warm start never ran nvrtc
    EXPECT_EQ(cache_read_spans, 1u);
    std::map<std::string, uint64_t> counters = trace::counters_snapshot();
    EXPECT_EQ(counters["kl.cache.disk.hit"], 1u);
    EXPECT_EQ(counters.count("kl.cache.disk.miss"), 0u);
    trace::set_mode(trace::Mode::Off);
    trace::clear();
}

TEST(RtcCacheWisdomKernel, CompileAheadHitsTheDisk) {
    Fixture fx;
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);
    {
        WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::ReadWrite));
        kernel.launch(c, a, b, n);
    }

    WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::ReadWrite));
    kernel.compile_ahead(core::ProblemSize(n));
    kernel.bake_launch(core::into_args(c, a, b, n));  // joins the background build
    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.disk_hits, 1u);
    std::optional<core::OverheadBreakdown> cost =
        kernel.cached_build_overhead(core::ProblemSize(n));
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(cost->compile_seconds, 0.0);
    EXPECT_GT(cost->cache_seconds, 0.0);

    EXPECT_FALSE(kernel.launch(c, a, b, n).cold);
}


// Regression pin: the per-kernel Stats::disk_hits/disk_misses snapshots and
// the process-wide kl.cache.disk.* trace counters are incremented together
// (under the kernel's state mutex) and must never drift apart — across the
// miss/write, hit, and quarantine/recompile paths alike.
TEST(RtcCacheWisdomKernel, StatsAgreeWithDiskCountersOnEveryPath) {
    trace::set_mode(trace::Mode::Counters);
    trace::clear();
    Fixture fx;
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);
    uint64_t total_hits = 0;
    uint64_t total_misses = 0;

    // Path 1: cold miss, entry written.
    {
        WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::ReadWrite));
        kernel.launch(c, a, b, n);
        total_hits += kernel.stats().disk_hits;
        total_misses += kernel.stats().disk_misses;
    }
    // Path 2: warm hit from the entry just written.
    {
        WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::ReadWrite));
        kernel.launch(c, a, b, n);
        total_hits += kernel.stats().disk_hits;
        total_misses += kernel.stats().disk_misses;
    }
    // Path 3: corrupt the entry; the load quarantines and counts a miss.
    {
        std::vector<std::string> entries = fx.entry_files();
        ASSERT_EQ(entries.size(), 1u);
        write_text_file(path_join(fx.cache_dir, entries[0]), "not json");
        WisdomKernel kernel(vector_add_builder(), fx.wisdom_settings(Mode::ReadWrite));
        kernel.launch(c, a, b, n);
        total_hits += kernel.stats().disk_hits;
        total_misses += kernel.stats().disk_misses;
    }

    EXPECT_EQ(total_hits, 1u);
    EXPECT_EQ(total_misses, 2u);
    std::map<std::string, uint64_t> counters = trace::counters_snapshot();
    EXPECT_EQ(counters["kl.cache.disk.hit"], total_hits);
    EXPECT_EQ(counters["kl.cache.disk.miss"], total_misses);
    EXPECT_EQ(counters["kl.cache.disk.quarantined"], 1u);
    EXPECT_EQ(counters["kl.cache.disk.write"], 2u);  // paths 1 and 3 stored
    trace::set_mode(trace::Mode::Off);
    trace::clear();
}

}  // namespace
}  // namespace kl::rtccache
