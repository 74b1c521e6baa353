/**
 * @file
 * pcbench_trace — the benchmark's traced harness.
 *
 *   pcbench_trace repro  --scale S --order a,b,... --out F --spans F
 *   pcbench_trace grid   --scale S --b L --l L --isize L --dsize L
 *                        --out F --spans F
 *   pcbench_trace stream --trace DIN --lru-out F --random-out F --spans F
 *
 * Does a workload's work with a span around every call into a layer's
 * public functions, reads the program's deterministic registry
 * counters, and prints one `name value` line per per-layer metric.
 * Spans (name, start, end, parent; the spans of one experiment or
 * design point share a group id) stay in memory and are written as
 * Chrome-trace JSON to --spans when the run ends. The metric `run_ms`
 * covers the same work the untraced run times as run_s, so the runner
 * can report the tracing overhead.
 *
 * Unlike pcbench this harness calls layer functions directly, so a
 * refactor of a layer's interface breaks this target alone and never
 * an end-to-end number.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "cache/stack_sim.hh"
#include "common.hh"
#include "obs/stats_registry.hh"
#include "sweep/grid_spec.hh"
#include "sweep/result_sink.hh"
#include "sweep/stream_sweep.hh"
#include "sweep/sweep_engine.hh"
#include "trace/source.hh"
#include "util/units.hh"

namespace {

using namespace pipecache;

/** In-memory span log; one thread. */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        int group = -1;
    };

    /** RAII span: open on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(Spans &log, std::string name, int group = -1)
            : log_(log), id_(log.open(std::move(name), group))
        {}
        ~Scope() { log_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &log_;
        int id_;
    };

    int open(std::string name, int group = -1)
    {
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({std::move(name), perfbench::monoSeconds(), 0.0,
                          stack_.empty() ? -1 : stack_.back(), group});
        stack_.push_back(id);
        return id;
    }

    void close(int id)
    {
        spans_[id].end = perfbench::monoSeconds();
        stack_.pop_back();
    }

    /** Record an already-finished child of the innermost open span. */
    void add(std::string name, double start, double end, int group)
    {
        spans_.push_back({std::move(name), start, end,
                          stack_.empty() ? -1 : stack_.back(), group});
    }

    /** Summed duration of spans named @p name, in ms. */
    double totalMs(const std::string &name) const
    {
        double sum = 0.0;
        for (const Span &s : spans_) {
            if (s.name == name)
                sum += s.end - s.start;
        }
        return sum * 1e3;
    }

    void writeChrome(const std::string &path) const
    {
        std::ofstream out(path, std::ios::binary);
        out << "{\"traceEvents\":[\n";
        const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[512];
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                          "\"args\":{\"id\":%zu,\"parent\":%d,"
                          "\"group\":%d}}%s\n",
                          s.name.c_str(),
                          s.name.substr(0, s.name.find('.')).c_str(),
                          (s.start - t0) * 1e6, (s.end - s.start) * 1e6, i,
                          s.parent, s.group,
                          i + 1 < spans_.size() ? "," : "");
            out << buf;
        }
        out << "]}\n";
        if (!out)
            throw std::runtime_error("cannot write " + path);
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

void
emit(const std::string &name, double value)
{
    std::printf("%s %.9g\n", name.c_str(), value);
}

std::uint64_t
counter(const char *name)
{
    return obs::StatsRegistry::global().counterValue(name);
}

/** Suite build; reports trace.suite_ms and trace.suite_insts. */
void
buildSuite(Spans &spans, core::CpiModel &cpi)
{
    {
        Spans::Scope s(spans, "trace.suite");
        cpi.schedule();
    }
    Counter insts = 0;
    for (std::size_t i = 0; i < cpi.numBenchmarks(); ++i)
        insts += cpi.traceOf(i).instCount;
    emit("trace.suite_ms", spans.totalMs("trace.suite"));
    emit("trace.suite_insts", static_cast<double>(insts));
}

int
repro(const perfbench::Args &args, Spans &spans)
{
    const auto order = perfbench::splitList(args.need("order"));
    core::CpiModel cpi(perfbench::suiteFrom(args));
    core::TpiModel tpi(cpi);
    const auto registry = perfbench::experiments(cpi, tpi);
    buildSuite(spans, cpi);

    const std::uint64_t fetches0 = counter("cpusim.fetches");
    double replayMs = 0.0;
    std::ofstream out(args.need("out"), std::ios::binary);
    {
        Spans::Scope run(spans, "run");
        for (std::size_t g = 0; g < order.size(); ++g) {
            const std::string &name = order[g];
            const std::uint64_t r0 = cpi.engineReplays();
            const std::string span = "core.exp." + name;
            {
                Spans::Scope s(spans, span, static_cast<int>(g));
                out << "== " << name << " ==\n"
                    << registry.at(name)().render() << "\n";
            }
            const std::uint64_t replays = cpi.engineReplays() - r0;
            emit(span + "_ms", spans.totalMs(span));
            emit(span + "_replays", static_cast<double>(replays));
            if (replays > 0)
                replayMs += spans.totalMs(span);
        }
        out.close();
    }
    if (!out)
        throw std::runtime_error("cannot write " + args.need("out"));
    const double fetches =
        static_cast<double>(counter("cpusim.fetches") - fetches0);
    emit("core.replays", static_cast<double>(cpi.engineReplays()));
    emit("cpusim.fetches", fetches);
    emit("cpusim.ns_per_fetch", fetches > 0 ? replayMs * 1e6 / fetches : 0);
    emit("run_ms", spans.totalMs("run"));
    return 0;
}

int
grid(const perfbench::Args &args, Spans &spans)
{
    const sweep::GridSpec spec = perfbench::gridFrom(args);
    const std::vector<core::DesignPoint> points = spec.build();
    core::CpiModel cpi(perfbench::suiteFrom(args));
    core::TpiModel tpi(cpi);
    sweep::SweepOptions engineOpts;
    engineOpts.threads = 1;
    sweep::SweepEngine engine(tpi, engineOpts);
    buildSuite(spans, cpi);

    // The engine's one worker reports each finished point; the gap to
    // the previous report is that point's evaluation. A point whose
    // evaluation replayed the trace (and fed the stack passes) is a
    // component span; the rest assemble from cached components.
    double last = 0.0;
    std::uint64_t lastReplays = 0;
    std::uint64_t lastFetches = 0;
    std::uint64_t replayedFetches = 0;
    int index = 0;
    sweep::RunOptions runOpts;
    runOpts.coldMetadata = true;
    runOpts.onProgress = [&](std::size_t, std::size_t) {
        const double now = perfbench::monoSeconds();
        const std::uint64_t replays = cpi.engineReplays();
        const std::uint64_t fetches = counter("cpusim.fetches");
        const bool replayed = replays != lastReplays;
        if (replayed)
            replayedFetches += fetches - lastFetches;
        spans.add(replayed ? "core.component" : "core.assemble", last, now,
                  index++);
        last = now;
        lastReplays = replays;
        lastFetches = fetches;
    };

    sweep::RunResult result;
    const std::uint64_t replays0 = cpi.engineReplays();
    {
        Spans::Scope run(spans, "run");
        {
            Spans::Scope s(spans, "sched.prepare");
            cpi.prepareFactored(points);
        }
        {
            Spans::Scope s(spans, "sweep.engine");
            last = perfbench::monoSeconds();
            lastReplays = cpi.engineReplays();
            lastFetches = counter("cpusim.fetches");
            result = engine.run(points, runOpts);
        }
        {
            Spans::Scope s(spans, "timing.cycle");
            for (const core::DesignPoint &p : points)
                tpi.cycleNs(p);
        }
        {
            Spans::Scope s(spans, "sweep.sink");
            std::ofstream out(args.need("out"), std::ios::binary);
            sweep::writeJson(out, spec.name(), result.records, result.stats);
            out.close();
            if (!out)
                throw std::runtime_error("cannot write " + args.need("out"));
        }
    }
    const double componentMs = spans.totalMs("core.component");
    emit("sched.prepare_ms", spans.totalMs("sched.prepare"));
    emit("core.component_ms", componentMs);
    emit("core.assemble_ms", spans.totalMs("core.assemble"));
    emit("core.replays", static_cast<double>(cpi.engineReplays() - replays0));
    emit("cpusim.fetches", static_cast<double>(counter("cpusim.fetches")));
    emit("cpusim.ns_per_fetch",
         replayedFetches > 0
             ? componentMs * 1e6 / static_cast<double>(replayedFetches)
             : 0.0);
    emit("cache.stack_passes",
         static_cast<double>(counter("stack_sim.passes")));
    emit("cache.stack_accesses",
         static_cast<double>(counter("stack_sim.accesses")));
    emit("timing.cycle_ms", spans.totalMs("timing.cycle"));
    emit("sweep.engine_ms", spans.totalMs("sweep.engine"));
    emit("sweep.sink_ms", spans.totalMs("sweep.sink"));
    emit("sweep.replays_saved_ratio",
         static_cast<double>(counter("sweep.replays_saved")) /
             static_cast<double>(points.size()));
    // The untraced run times neither the extra prepare nor cycleNs.
    emit("run_ms", spans.totalMs("sweep.engine") + spans.totalMs("sweep.sink"));
    return result.stats.pointsFailed > 0 ? 4 : 0;
}

std::vector<core::DesignPoint>
streamPoints(const char *isize, const char *dsize, const char *block,
             const char *repl)
{
    sweep::GridSpec spec;
    spec.set("b", "0");
    spec.set("l", "0");
    spec.set("isize", isize);
    spec.set("dsize", dsize);
    spec.set("block", block);
    spec.set("repl", repl);
    return spec.build();
}

/**
 * The two `pipecache_sweep --trace` passes (LRU grid, Random subgrid)
 * with their parse, sweep and sink spans, then the cache layer's share
 * of the work redone through its own interfaces: one StackSimulator
 * ladder per (side, block size) and one Cache replay per Random
 * geometry.
 */
int
stream(const perfbench::Args &args, Spans &spans)
{
    const std::string din = args.need("trace");
    const auto lru = streamPoints("1,2,4,8,16,32,64", "1,2,4,8,16,32,64",
                                  "2,4,8", "lru");
    const auto random = streamPoints("4,16,64", "4,16,64", "4", "random");
    std::vector<trace::TraceRecord> records;
    {
        Spans::Scope run(spans, "run");
        for (const auto &[points, outKey] :
             {std::pair{&lru, "lru-out"}, std::pair{&random, "random-out"}}) {
            std::unique_ptr<trace::TraceSource> source;
            {
                Spans::Scope s(spans, "trace.parse");
                source = trace::openTraceFile(din);
                records = trace::drain(*source);
            }
            sweep::StreamSweepResult result;
            {
                Spans::Scope s(spans, "sweep.engine");
                result = sweep::sweepStream(records, *points);
            }
            Spans::Scope s(spans, "sweep.sink");
            std::ofstream out(args.need(outKey), std::ios::binary);
            sweep::writeStreamJson(out, "grid", source->name(), result);
            out.close();
            if (!out)
                throw std::runtime_error("cannot write " + args.need(outKey));
        }
    }
    emit("run_ms", spans.totalMs("run"));
    emit("trace.parse_ms", spans.totalMs("trace.parse") / 2);
    emit("trace.records", static_cast<double>(records.size()));
    emit("sweep.engine_ms", spans.totalMs("sweep.engine"));
    emit("sweep.sink_ms", spans.totalMs("sweep.sink"));

    std::vector<cache::AccessRecord> sides[2];
    for (const trace::TraceRecord &r : records) {
        if (r.kind == trace::RefKind::Fetch)
            sides[0].push_back({r.addr, 0, 0});
        else
            sides[1].push_back(
                {r.addr, 0,
                 static_cast<std::uint8_t>(r.kind == trace::RefKind::Write)});
    }
    std::uint64_t passes = 0;
    std::uint64_t accesses = 0;
    for (const auto &recs : sides) {
        for (const std::uint32_t blockBytes : {8u, 16u, 32u}) {
            std::vector<cache::StackGeometry> geoms;
            for (std::uint32_t kw = 1; kw <= 64; kw *= 2)
                geoms.push_back({floorLog2(kiloWordsToBytes(kw) / blockBytes),
                                 1});
            Spans::Scope s(spans, "cache.stack");
            cache::StackSimulator sim(blockBytes, geoms, 1);
            sim.accessBatch(recs);
            sim.finish();
            ++passes;
            accesses += recs.size();
        }
        for (const std::uint32_t kw : {4u, 16u, 64u}) {
            cache::CacheConfig cfg;
            cfg.blockBytes = 16;
            cfg.sizeBytes = kiloWordsToBytes(kw);
            cfg.repl = cache::Replacement::Random;
            Spans::Scope s(spans, "cache.random");
            cache::Cache sim(cfg, 0x5eedu);
            for (const cache::AccessRecord &r : recs)
                sim.access(r.addr, r.store != 0);
        }
    }
    emit("cache.stack_ms", spans.totalMs("cache.stack"));
    emit("cache.stack_passes", static_cast<double>(passes));
    emit("cache.stack_accesses", static_cast<double>(accesses));
    emit("cache.random_ms", spans.totalMs("cache.random"));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: pcbench_trace repro|grid|stream [--key value]"
                     "...\n";
        return 2;
    }
    try {
        const std::string cmd = argv[1];
        const perfbench::Args args(argc, argv, 2);
        Spans spans;
        int code = 2;
        if (cmd == "repro")
            code = repro(args, spans);
        else if (cmd == "grid")
            code = grid(args, spans);
        else if (cmd == "stream")
            code = stream(args, spans);
        else
            std::cerr << "pcbench_trace: unknown command " << cmd << "\n";
        spans.writeChrome(args.need("spans"));
        return code;
    } catch (const std::exception &e) {
        std::cerr << "pcbench_trace: " << e.what() << "\n";
        return 1;
    }
}
