/**
 * @file
 * pcbench — the benchmark's untraced harness.
 *
 *   pcbench probe
 *   pcbench gendin --seed N --records R --out FILE
 *   pcbench repro  --scale S --order a,b,... --out FILE [--setup-only]
 *   pcbench grid   --scale S --b L --l L --isize L --dsize L --out FILE
 *                  [--setup-only]
 *
 * repro and grid make the same top-level calls as the
 * `run_experiment` and `pipecache_sweep` mains, split at the point
 * where the suite is built: they print `ready <t>` once the suite
 * programs, traces and schedule exist and `done <t>` after the last
 * output byte is written, both on CLOCK_MONOTONIC. The runner turns
 * the stamps into setup_s and run_s, so no timing here depends on the
 * runner's own overhead. probe times the host-drift reference loops;
 * gendin makes the stream workload's seeded input.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "common.hh"
#include "sweep/result_sink.hh"
#include "sweep/sweep_engine.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"

namespace {

using namespace pipecache;

void
stamp(const char *what)
{
    std::printf("%s %.9f\n", what, perfbench::monoSeconds());
    std::fflush(stdout);
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Host-drift reference loops. cpu: a dependent integer/floating-point
 * chain that lives in registers. mem: a dependent pointer chase over a
 * 128 MiB full-period LCG permutation, larger than the last-level
 * cache, so each step is a DRAM round trip the prefetchers cannot
 * predict. Both are fixed work; only their wall time varies.
 */
int
probe()
{
    const std::uint64_t cpuIters = 10'000'000;
    auto t0 = perfbench::monoSeconds();
    std::uint64_t x = 0x243f6a8885a308d3ULL;
    double acc = 1.0;
    for (std::uint64_t i = 0; i < cpuIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc * 0.999999 + static_cast<double>(x & 0xff);
    }
    const double cpuMs = (perfbench::monoSeconds() - t0) * 1e3;

    const std::uint32_t n = 1u << 25; // 32 Mi entries x 4 B = 128 MiB
    std::vector<std::uint32_t> next(n);
    // i -> (a*i + c) mod 2^25 is a single cycle (Hull-Dobell).
    for (std::uint32_t i = 0; i < n; ++i)
        next[i] = (i * 2891336453u + 12345u) & (n - 1);
    const std::uint64_t memSteps = 250'000;
    t0 = perfbench::monoSeconds();
    std::uint32_t p = 0;
    for (std::uint64_t i = 0; i < memSteps; ++i)
        p = next[p];
    const double memMs = (perfbench::monoSeconds() - t0) * 1e3;

    std::printf("cpu_ref_ms %.6f\nmem_ref_ms %.6f\nsink %llu %u\n", cpuMs,
                memMs, static_cast<unsigned long long>(x) +
                           static_cast<unsigned long long>(acc),
                p);
    return 0;
}

/**
 * The stream workload's trace: four registry generators drained at
 * R/4 records each and interleaved in seeded chunks of 64..4095
 * records, written as din text.
 */
int
gendin(const perfbench::Args &args)
{
    const std::uint64_t seed = std::stoull(args.need("seed"));
    const std::size_t records = std::stoull(args.need("records"));
    const char *names[] = {"zipf-hot", "write-burst", "fetch-loop",
                           "phase-change"};
    std::uint64_t rng = seed * 0x100000001b3ULL + 0x5eed;
    std::vector<std::vector<trace::TraceRecord>> parts;
    for (const char *name : names) {
        workloads::WorkloadOptions wopts;
        wopts.seed = splitmix64(rng) & 0xffffffffu;
        wopts.records = records / 4;
        auto source = workloads::openWorkload(name, wopts);
        parts.push_back(trace::drain(*source, records / 4));
    }
    std::vector<trace::TraceRecord> mixed;
    mixed.reserve(records);
    std::vector<std::size_t> pos(parts.size(), 0);
    std::size_t live = parts.size();
    while (live > 0) {
        const std::size_t k = splitmix64(rng) % parts.size();
        if (pos[k] == parts[k].size())
            continue;
        const std::size_t chunk = 64 + splitmix64(rng) % 4032;
        const std::size_t end = std::min(parts[k].size(), pos[k] + chunk);
        mixed.insert(mixed.end(), parts[k].begin() + pos[k],
                     parts[k].begin() + end);
        pos[k] = end;
        if (end == parts[k].size())
            --live;
    }
    std::uint64_t counts[3] = {0, 0, 0};
    for (const auto &r : mixed)
        ++counts[static_cast<int>(r.kind)];
    std::ofstream out(args.need("out"), std::ios::binary);
    trace::writeDinRecords(out, mixed);
    out.close();
    if (!out)
        throw std::runtime_error("cannot write " + args.need("out"));
    std::printf("records %zu\n", mixed.size());
    for (int k = 0; k < 3; ++k) {
        std::printf("%s %llu\n",
                    k == static_cast<int>(trace::RefKind::Fetch)  ? "fetches"
                    : k == static_cast<int>(trace::RefKind::Read) ? "reads"
                                                                  : "writes",
                    static_cast<unsigned long long>(counts[k]));
    }
    return 0;
}

/** Every paper table and figure, in the order given, one CpiModel. */
int
repro(const perfbench::Args &args)
{
    const auto order = perfbench::splitList(args.need("order"));
    core::CpiModel cpi(perfbench::suiteFrom(args));
    core::TpiModel tpi(cpi);
    const auto registry = perfbench::experiments(cpi, tpi);
    for (const auto &name : order) {
        if (!registry.count(name))
            throw std::runtime_error("unknown experiment " + name);
    }
    cpi.schedule();
    stamp("ready");
    if (args.has("setup-only"))
        return 0;

    std::ofstream out(args.need("out"), std::ios::binary);
    for (const auto &name : order) {
        out << "== " << name << " ==\n"
            << registry.at(name)().render() << "\n";
    }
    out.close();
    if (!out)
        throw std::runtime_error("cannot write " + args.need("out"));
    stamp("done");
    return 0;
}

/** One grid through SweepEngine on one worker, JSON written. */
int
grid(const perfbench::Args &args)
{
    const sweep::GridSpec spec = perfbench::gridFrom(args);
    const std::vector<core::DesignPoint> points = spec.build();

    core::CpiModel cpi(perfbench::suiteFrom(args));
    core::TpiModel tpi(cpi);
    sweep::SweepOptions engineOpts;
    engineOpts.threads = 1;
    sweep::SweepEngine engine(tpi, engineOpts);
    cpi.schedule();
    stamp("ready");
    if (args.has("setup-only"))
        return 0;

    sweep::RunOptions runOpts;
    runOpts.coldMetadata = true;
    const sweep::RunResult result = engine.run(points, runOpts);
    std::ofstream out(args.need("out"), std::ios::binary);
    sweep::writeJson(out, spec.name(), result.records, result.stats);
    out.close();
    if (!out)
        throw std::runtime_error("cannot write " + args.need("out"));
    stamp("done");
    return result.stats.pointsFailed > 0 ? 4 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: pcbench probe|gendin|repro|grid [--key value]"
                     "...\n";
        return 2;
    }
    try {
        const std::string cmd = argv[1];
        const perfbench::Args args(argc, argv, 2);
        if (cmd == "probe")
            return probe();
        if (cmd == "gendin")
            return gendin(args);
        if (cmd == "repro")
            return repro(args);
        if (cmd == "grid")
            return grid(args);
        std::cerr << "pcbench: unknown command " << cmd << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "pcbench: " << e.what() << "\n";
        return 1;
    }
}
