/**
 * @file
 * Helpers shared by the benchmark's two harness programs: the untimed-input
 * argument parser, the monotonic clock the runner also reads, and the
 * paper-reproduction experiment list.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <ctime>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hh"
#include "sweep/grid_spec.hh"

namespace perfbench {

/**
 * CLOCK_MONOTONIC in seconds: the clock Python's time.monotonic()
 * reads on Linux, so the runner can subtract its own launch
 * timestamp from the "ready" stamp a harness prints.
 */
inline double
monoSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** `--key value` pairs after the subcommand; a bare `--flag` maps to
 *  "1". */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                throw std::runtime_error("unexpected argument " + key);
            key = key.substr(2);
            if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
                kv_[key] = argv[++i];
            else
                kv_[key] = "1";
        }
    }

    std::string need(const std::string &key) const
    {
        const auto it = kv_.find(key);
        if (it == kv_.end())
            throw std::runtime_error("missing --" + key);
        return it->second;
    }

    double num(const std::string &key, double dflt) const
    {
        const auto it = kv_.find(key);
        return it == kv_.end() ? dflt : std::stod(it->second);
    }

    bool has(const std::string &key) const { return kv_.count(key) != 0; }

  private:
    std::map<std::string, std::string> kv_;
};

/** Comma-separated list. */
inline std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t begin = 0;
    while (begin <= s.size()) {
        const auto comma = s.find(',', begin);
        const auto end = comma == std::string::npos ? s.size() : comma;
        if (end > begin)
            out.push_back(s.substr(begin, end - begin));
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }
    return out;
}

/** The suite a harness's --scale selects. */
inline pipecache::core::SuiteConfig
suiteFrom(const Args &args)
{
    pipecache::core::SuiteConfig suite;
    suite.scaleDivisor = args.num("scale", 2000.0);
    return suite;
}

/** The grid the --b/--l/--isize/--dsize/--block/--penalty lists give,
 *  in the order given. */
inline pipecache::sweep::GridSpec
gridFrom(const Args &args)
{
    pipecache::sweep::GridSpec spec;
    for (const char *key : {"b", "l", "isize", "dsize", "block", "penalty"}) {
        if (args.has(key))
            spec.set(key, args.need(key));
    }
    return spec;
}

using Experiment = std::function<pipecache::TextTable()>;

/**
 * Every paper table and figure by name, the same calls the
 * `run_experiment` tool's registry makes.
 */
inline std::map<std::string, Experiment>
experiments(pipecache::core::CpiModel &cpi, pipecache::core::TpiModel &tpi)
{
    namespace exp = pipecache::core::experiments;
    return {
        {"table1", [&] { return exp::table1(cpi); }},
        {"table2", [&] { return exp::table2(cpi); }},
        {"table3", [&] { return exp::table3(cpi); }},
        {"table4", [&] { return exp::table4(cpi); }},
        {"table5", [&] { return exp::table5(cpi); }},
        {"table6", [&] { return exp::table6(); }},
        {"fig3", [&] { return exp::fig3(cpi); }},
        {"fig4", [&] { return exp::fig4(cpi); }},
        {"fig5", [&] { return exp::fig5(cpi); }},
        {"fig6", [&] { return exp::fig6(cpi); }},
        {"fig7", [&] { return exp::fig7(cpi); }},
        {"fig8", [&] { return exp::fig8(cpi); }},
        {"fig9", [&] { return exp::fig9(tpi); }},
        {"fig11", [&] { return exp::fig11(cpi); }},
        {"fig12", [&] { return exp::fig12(tpi); }},
        {"fig12dyn", [&] { return exp::fig12Dynamic(tpi); }},
        {"fig13", [&] { return exp::fig13(tpi); }},
        {"optimizer", [&] { return exp::optimizerTrajectory(tpi); }},
    };
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
