/**
 * @file
 * Host-time benchmark of the simulator, measured from outside the
 * library. run.py drives it; each invocation does one job and prints
 * one JSON object on stdout (progress goes to stderr).
 *
 * A workload is a fixed list of (app, protocol) configs at one
 * processor count, scale and network. Each config goes through the
 * public calls runExperiment makes, with the same segment sizing:
 * makeApp, DsmSystem::create, App::configure, DsmSystem::run,
 * DsmSystem::stats, then destruction. Timing each call separately
 * splits a pass into set-up, simulation and teardown.
 *
 * Jobs:
 *   (default)       one pass over the workload: per-config phase
 *                   times, work counts read from public accessors and
 *                   the simulated digest; --trace 1 adds the spans,
 *                   --checked turns all four verification analyses on
 *   --calibrate     unit costs of each layer's public entry points on
 *                   inputs shaped by the --*-bytes / --l1-miss-ratio
 *                   flags (the workload's own counts)
 *   --verify-split  every config through both runExperiment and the
 *                   phase-split path; the results must be identical
 *   --reference     runSequential checksum of each app (for goldens)
 *
 * One pass per process: a P=512 pass in a fresh process pays for
 * fresh fiber stacks and first-touch page faults, as every bench run
 * does, while a second pass in the same process reuses the warm heap
 * and runs about twice as fast. A pass process does nothing else, so
 * its peak RSS is the pass's own.
 */

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.h"
#include "cache/cache_model.h"
#include "dsm/system.h"
#include "harness/runner.h"
#include "net/backend.h"
#include "net/mailbox.h"
#include "sim/fiber.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "treadmarks/types.h"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

using namespace mcdsm;

namespace {

using Clock = std::chrono::steady_clock;
using Counts = std::map<std::string, double>;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void
usageError(const std::string& msg)
{
    std::fprintf(stderr, "hostbench: %s\n", msg.c_str());
    std::exit(2);
}

// ---- workloads ----------------------------------------------------------

/**
 * The canonical workloads (README.md says why each exists): scale512
 * and scale512_rdma stress the large-P costs (fresh fiber stacks, a
 * 512-entry ready heap, O(P) timestamps, mailbox traffic) on each
 * network; fig5_p16 stresses the data path (cache model, write
 * doubling, diffs) at a P the stack cache covers.
 */
struct Workload
{
    const char* name;
    std::vector<std::string> apps;
    int nprocs;
    AppScale scale;
    NetKind net;
};

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> w = {
        {"scale512", {"sor", "gauss", "kv"}, 512, AppScale::Tiny,
         NetKind::Mc},
        {"fig5_p16", {"sor", "gauss", "water"}, 16, AppScale::Small,
         NetKind::Mc},
        {"scale512_rdma", {"sor", "gauss", "kv"}, 512, AppScale::Tiny,
         NetKind::Rdma},
    };
    return w;
}

const ProtocolKind kProtocols[] = {ProtocolKind::CsmPoll,
                                   ProtocolKind::TmkMcPoll};

const char*
scaleName(AppScale s)
{
    switch (s) {
      case AppScale::Tiny: return "tiny";
      case AppScale::Small: return "small";
      case AppScale::Large: return "large";
    }
    return "?";
}

struct Config
{
    std::string app;
    ProtocolKind protocol;
    int nprocs;
    AppScale scale;
    NetKind net;
    bool checks;

    /** "<app>-<protocol>": the per-config span suffix. */
    std::string
    label() const
    {
        return app + "-" + protocolName(protocol);
    }

    /**
     * Golden key. Checks are left out: the analyses charge no virtual
     * time, so a checked config must reproduce the bare digest.
     */
    std::string
    key() const
    {
        return strprintf("%s-p%d-%s-%s", label().c_str(), nprocs,
                         scaleName(scale), netName(net));
    }
};

std::vector<Config>
configsOf(const Workload& w, bool checked)
{
    std::vector<Config> out;
    for (const auto& app : w.apps) {
        for (ProtocolKind k : kProtocols) {
            if (!configSupported(k, w.nprocs)) {
                usageError(strprintf("unsupported configuration %s x %d",
                                     protocolName(k), w.nprocs));
            }
            out.push_back(
                {app, k, w.nprocs, w.scale, w.net, checked});
        }
    }
    return out;
}

// ---- spans ----------------------------------------------------------------

/**
 * In-memory span recorder. Spans open and close in LIFO order around
 * public calls and record their parent, so self time (duration minus
 * the children's) is derived when they are printed at exit.
 */
class Tracer
{
  public:
    int
    open(std::string name, std::string config)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({std::move(name), std::move(config), parent,
                          now(), 0.0});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        mcdsm_assert(!stack_.empty() && stack_.back() == id,
                     "span closed out of order");
        spans_[id].end = now();
        stack_.pop_back();
    }

    void
    print(FILE* f) const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span& s : spans_) {
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        }
        std::fprintf(f, "\"spans\": [");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f,
                         "%s\n  {\"id\": %zu, \"name\": \"%s\", "
                         "\"config\": \"%s\", \"parent\": %d, "
                         "\"start_s\": %.9f, \"end_s\": %.9f, "
                         "\"self_s\": %.9f}",
                         i ? "," : "", i, s.name.c_str(), s.config.c_str(),
                         s.parent, s.start, s.end,
                         s.end - s.start - child[i]);
        }
        std::fprintf(f, "\n]");
    }

  private:
    struct Span
    {
        std::string name;
        std::string config;
        int parent;
        double start;
        double end;
    };

    double now() const { return secondsBetween(t0_, Clock::now()); }

    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Opens a span when a tracer is attached; closes it on scope exit. */
class SpanScope
{
  public:
    SpanScope(Tracer* t, std::string name, std::string config = "")
        : t_(t), id_(t ? t->open(std::move(name), std::move(config)) : -1)
    {}
    ~SpanScope()
    {
        if (t_ != nullptr)
            t_->close(id_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    Tracer* t_;
    int id_;
};

// ---- one config -------------------------------------------------------------

/** Simulated result of one config, compared against the goldens. */
struct Digest
{
    Time elapsed = 0;
    std::uint64_t messages = 0;
    std::uint64_t netBytes = 0;
    std::uint64_t oneSidedBytes = 0;
    double checksum = 0.0;
    std::uint64_t kvServiceDigest = 0;
    std::uint64_t kvGetVerifyFailures = 0;
    std::uint64_t checkFindings = 0;
};

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b = 0;
    static_assert(sizeof(b) == sizeof(v));
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** FNV-1a over the serving statistics (0 when none were declared). */
std::uint64_t
serviceDigest(const ServiceStats& s)
{
    if (!s.enabled())
        return 0;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const auto& ph : s.phases) {
        for (char c : ph.name)
            mix(static_cast<unsigned char>(c));
        mix(ph.latency.count());
        mix(ph.latency.min());
        mix(ph.latency.max());
        mix(bitsOf(ph.latency.mean()));
        for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i)
            mix(ph.latency.bucketCount(i));
        for (const auto& sh : ph.shards) {
            mix(sh.requests);
            mix(sh.reads);
            mix(sh.writes);
            mix(sh.contendedAcquires);
            mix(static_cast<std::uint64_t>(sh.lockWait));
            mix(sh.hotKey);
            mix(sh.hotKeyRequests);
        }
    }
    return h;
}

/** Host time of each public call made for one config. */
struct ConfigResult
{
    Config cfg;
    double makeS = 0;
    double createS = 0;
    double configureS = 0;
    double runS = 0;
    double statsS = 0;
    double teardownS = 0;
    double totalS = 0;
    Digest digest;
    /** Work counts, keyed by per-layer metric name. */
    Counts counts;
};

/**
 * The DsmConfig runExperiment would build, with every host-side
 * choice pinned: pooled memory on (it otherwise follows
 * MCDSM_NO_POOL), the null fault plan, the trace ring off and the
 * sequential run loop (no parallel-engine setting).
 */
DsmConfig
dsmConfigFor(const Config& c, std::uint64_t seed, const App& app)
{
    DsmConfig cfg;
    cfg.protocol = c.protocol;
    cfg.topo = Topology::standard(c.nprocs);
    cfg.seed = seed;
    cfg.net = c.net;
    if (c.checks)
        cfg.checks = CheckConfig::all();
    cfg.fault = FaultPlan{};
    cfg.traceCapacity = 0;
    cfg.memPool = true;
    // runExperiment's segment sizing: the app's footprint plus 1 MB of
    // headroom, doubled and rounded up to a power of two.
    const std::size_t need = app.sharedBytes() + (1 << 20);
    std::size_t cap = 1 << 20;
    while (cap < need * 2)
        cap <<= 1;
    cfg.maxSharedBytes = cap;
    return cfg;
}

void
readCounts(DsmSystem& sys, Counts& m)
{
    const RunStats& st = sys.stats();
    auto total = [&st](auto field) {
        return static_cast<double>(st.total(field));
    };
    const double cache_acc =
        total([](const ProcStats& p) { return p.cacheAccesses; });
    const double rf = total([](const ProcStats& p) { return p.readFaults; });
    const double wf = total([](const ProcStats& p) { return p.writeFaults; });
    const double rs =
        total([](const ProcStats& p) { return p.requestsServiced; });
    const double la =
        total([](const ProcStats& p) { return p.lockAcquires; });
    const double ba = total([](const ProcStats& p) { return p.barriers; });
    const double fo = total([](const ProcStats& p) { return p.flagOps; });
    DsmRuntime& rt = sys.runtime();
    const double msgs = static_cast<double>(rt.mail().totalMessages());
    // The simEvents sum bench_scale and bench_micro report.
    m["dsm.sim_events"] = msgs + cache_acc + rf + wf + rs + la + ba + fo;
    m["dsm.read_faults"] = rf;
    m["dsm.write_faults"] = wf;
    m["dsm.requests_serviced"] = rs;
    m["dsm.lock_acquires"] = la;
    m["dsm.barriers"] = ba;
    m["dsm.flag_ops"] = fo;

    m["sim.tasks"] = rt.sched().taskCount();
    m["sim.yield_switches"] =
        static_cast<double>(rt.sched().yieldSwitches());

    const NetworkBackend& net = rt.net();
    m["net.messages"] = msgs;
    m["net.message_bytes"] =
        total([](const ProcStats& p) { return p.bytesSent; });
    m["net.transfers"] = static_cast<double>(net.transferCount());
    m["net.bytes"] = static_cast<double>(net.totalBytes());
    m["net.stream_bytes"] = static_cast<double>(net.streamBytes());
    m["net.one_sided_bytes"] = static_cast<double>(net.oneSidedBytes());
    m["net.rdma_verbs"] = static_cast<double>(
        net.readVerbs() + net.writeVerbs() + net.casVerbs() +
        net.faaVerbs());
    m["net.rdma_rw_verbs"] =
        static_cast<double>(net.readVerbs() + net.writeVerbs());
    m["net.doorbells"] = static_cast<double>(net.doorbells());

    m["treadmarks.twins"] = total([](const ProcStats& p) { return p.twins; });
    m["treadmarks.diffs_created"] =
        total([](const ProcStats& p) { return p.diffsCreated; });
    m["treadmarks.diffs_applied"] =
        total([](const ProcStats& p) { return p.diffsApplied; });
    m["treadmarks.diff_bytes"] =
        total([](const ProcStats& p) { return p.diffBytes; });

    m["cashmere.dir_updates"] =
        total([](const ProcStats& p) { return p.dirUpdates; });
    m["cashmere.write_notices"] =
        total([](const ProcStats& p) { return p.writeNoticesSent; });
    m["cashmere.page_transfers"] =
        total([](const ProcStats& p) { return p.pageTransfers; });

    m["cache.accesses"] = cache_acc;
    m["cache.l1_misses"] = total([](const ProcStats& p) { return p.l1Misses; });
    m["cache.l2_misses"] = total([](const ProcStats& p) { return p.l2Misses; });

    m["vm.prot_ops"] = total([](const ProcStats& p) { return p.vmProtOps; });

    m["mem.heap_allocs"] = static_cast<double>(st.mem.heapAllocs());
    m["mem.heap_bytes"] = static_cast<double>(st.mem.heapBytes());
    m["mem.pool_hits"] = static_cast<double>(st.mem.poolHits());

    const CheckerSuite* cs = rt.checks();
    m["check.violations"] =
        cs != nullptr ? static_cast<double>(cs->violations()) : 0.0;
}

long
minorFaults()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

/**
 * Run one config through the phase-split path. With a tracer, each
 * public call gets a span. @p keep, when set, receives a copy of the
 * run's statistics (for --verify-split).
 */
ConfigResult
runConfig(const Config& c, std::uint64_t seed, Tracer* tr,
          RunStats* keep = nullptr)
{
    ConfigResult r;
    r.cfg = c;
    const std::string label = c.label();
    SpanScope cspan(tr, "config", label);
    const auto t0 = Clock::now();

    std::unique_ptr<App> app;
    {
        SpanScope s(tr, "apps.make", label);
        app = makeApp(c.app, c.scale, seed);
    }
    const auto t1 = Clock::now();
    const DsmConfig cfg = dsmConfigFor(c, seed, *app);
    const auto t1b = Clock::now();
    std::unique_ptr<DsmSystem> sys;
    {
        SpanScope s(tr, "dsm.create", label);
        sys = DsmSystem::create(cfg);
    }
    const auto t2 = Clock::now();
    {
        SpanScope s(tr, "apps.configure", label);
        app->configure(*sys);
    }
    const auto t3 = Clock::now();
    const std::uint64_t stacks_alloc0 = Fiber::stacksAllocated();
    const std::uint64_t stacks_reuse0 = Fiber::stacksReused();
    const long faults0 = minorFaults();
    {
        SpanScope s(tr, "dsm.run", label);
        sys->run([&](Proc& p) { app->worker(p); });
    }
    const auto t4 = Clock::now();
    r.counts["host.run_minor_faults"] =
        static_cast<double>(minorFaults() - faults0);
    {
        SpanScope s(tr, "dsm.stats", label);
        const RunStats& st = sys->stats();
        Digest& d = r.digest;
        d.elapsed = st.elapsed;
        d.messages = st.messages;
        d.netBytes = st.mcBytes;
        d.oneSidedBytes = st.netOneSidedBytes;
        d.checksum = app->result().checksum;
        d.kvServiceDigest = serviceDigest(st.service);
        if (c.app == "kv") {
            d.kvGetVerifyFailures =
                static_cast<std::uint64_t>(app->result().aux);
        }
        const CheckerSuite* cs = sys->runtime().checks();
        d.checkFindings = cs != nullptr ? cs->violations() : 0;
        readCounts(*sys, r.counts);
        r.counts["sim.stacks_allocated"] =
            static_cast<double>(Fiber::stacksAllocated() - stacks_alloc0);
        r.counts["sim.stacks_reused"] =
            static_cast<double>(Fiber::stacksReused() - stacks_reuse0);
        if (keep != nullptr)
            *keep = st;
    }
    const auto t5 = Clock::now();
    {
        SpanScope s(tr, "dsm.teardown", label);
        sys.reset();
        app.reset();
    }
    const auto t6 = Clock::now();

    r.makeS = secondsBetween(t0, t1);
    r.createS = secondsBetween(t1b, t2);
    r.configureS = secondsBetween(t2, t3);
    r.runS = secondsBetween(t3, t4);
    r.statsS = secondsBetween(t4, t5);
    r.teardownS = secondsBetween(t5, t6);
    r.totalS = secondsBetween(t0, t6);
    return r;
}

// ---- output helpers -------------------------------------------------------

void
printHeader(const Workload& w, std::uint64_t seed)
{
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"build\": "
                "{\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"nproc\": %ld}",
                w.name, static_cast<unsigned long long>(seed), __VERSION__,
                HOSTBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN));
}

void
printCounts(const Counts& m)
{
    std::printf("{");
    bool first = true;
    for (const auto& [k, v] : m) {
        std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
        first = false;
    }
    std::printf("}");
}

void
printConfig(const ConfigResult& c)
{
    const Digest& d = c.digest;
    std::printf(
        "\n  {\"config\": \"%s\", \"label\": \"%s\", \"app\": \"%s\", "
        "\"make_s\": %.9f, \"create_s\": %.9f, \"configure_s\": %.9f, "
        "\"run_s\": %.9f, \"stats_s\": %.9f, \"teardown_s\": %.9f, "
        "\"total_s\": %.9f,\n   \"digest\": {\"elapsed_ns\": %lld, "
        "\"messages\": %llu, \"net_bytes\": %llu, "
        "\"one_sided_bytes\": %llu, \"checksum_bits\": \"0x%016llx\", "
        "\"checksum\": %.17g, \"kv_service_digest\": \"0x%016llx\", "
        "\"kv_get_verify_failures\": %llu, \"check_findings\": %llu},\n"
        "   \"counts\": ",
        c.cfg.key().c_str(), c.cfg.label().c_str(), c.cfg.app.c_str(),
        c.makeS, c.createS, c.configureS, c.runS, c.statsS, c.teardownS,
        c.totalS, static_cast<long long>(d.elapsed),
        static_cast<unsigned long long>(d.messages),
        static_cast<unsigned long long>(d.netBytes),
        static_cast<unsigned long long>(d.oneSidedBytes),
        static_cast<unsigned long long>(bitsOf(d.checksum)), d.checksum,
        static_cast<unsigned long long>(d.kvServiceDigest),
        static_cast<unsigned long long>(d.kvGetVerifyFailures),
        static_cast<unsigned long long>(d.checkFindings));
    printCounts(c.counts);
    std::printf("}");
}

// ---- jobs -----------------------------------------------------------------

volatile std::uint64_t g_sink = 0;

/** Fresh anonymous memory, bypassing malloc. */
void*
mapAnonymous(std::size_t bytes)
{
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    mcdsm_assert(p != MAP_FAILED, "mmap of %zu bytes failed", bytes);
    return p;
}

struct Usage
{
    double sysS = 0;
    double minorFaults = 0;
    double maxRssMb = 0;
};

Usage
usageNow()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.sysS = static_cast<double>(ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.minorFaults = static_cast<double>(ru.ru_minflt);
    u.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0; // KB -> MB
    return u;
}

struct Options
{
    const Workload* workload = nullptr;
    std::uint64_t seed = 1;
    bool trace = false;
    bool checked = false;
    bool calibrate = false;
    bool verifySplit = false;
    bool reference = false;
    // Input shape for --calibrate (the workload's own means).
    std::size_t transferBytes = 64;
    std::size_t messageBytes = 64;
    std::size_t verbBytes = 64;
    std::size_t diffBytes = 64;
    double l1MissRatio = 0.0;
};

/** One pass over the workload's configs. */
int
passJob(const Options& o)
{
    const std::vector<Config> configs = configsOf(*o.workload, o.checked);
    Tracer tracer;
    Tracer* tr = o.trace ? &tracer : nullptr;
    std::vector<ConfigResult> results;
    const Usage u0 = usageNow();
    const auto t0 = Clock::now();
    {
        SpanScope s(tr, o.checked ? "pass.checked" : "pass");
        for (const Config& c : configs)
            results.push_back(runConfig(c, o.seed, tr));
    }
    const double wall = secondsBetween(t0, Clock::now());
    const Usage u1 = usageNow();
    if (results.empty()) {
        std::fprintf(stderr, "hostbench: pass ran zero configs\n");
        return 1;
    }
    printHeader(*o.workload, o.seed);
    std::printf(",\n\"pass\": {\"wall_s\": %.9f, \"peak_rss_mb\": %.6f, "
                "\"sys_s\": %.6f, \"minor_faults\": %.0f},\n\"configs\": [",
                wall, u1.maxRssMb, u1.sysS - u0.sysS,
                u1.minorFaults - u0.minorFaults);
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::printf("%s", i ? "," : "");
        printConfig(results[i]);
    }
    std::printf("\n]");
    if (tr != nullptr) {
        std::printf(",\n");
        tracer.print(stdout);
    }
    std::printf("}\n");
    return 0;
}

// ---- unit costs -----------------------------------------------------------

/** Median over @p reps of @p fn(), which returns ns per operation. */
template <typename F>
double
medianOf(int reps, F fn)
{
    std::vector<double> v;
    for (int i = 0; i < reps; ++i)
        v.push_back(fn());
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * ns of spawn-to-finish per task on a freshly allocated fiber stack
 * whose memory is already mapped, at @p nprocs tasks. Whether a fresh
 * stack also takes first-touch page faults depends on what the heap
 * kept from earlier teardowns; that part is priced by faultNs and
 * counted inside DsmSystem::run, so it is kept out of here: a warm-up
 * scheduler maps the memory, glibc is told not to return it, and a
 * holder scheduler takes every cached stack so each timed spawn
 * allocates.
 */
double
spawnNs(int nprocs)
{
#ifdef __GLIBC__
    mallopt(M_MMAP_THRESHOLD, 64 << 20);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
    {
        // Enough that the heap keeps P stacks' worth of freed memory
        // beyond what the stack cache takes back.
        Scheduler warm;
        for (int i = 0; i < 2 * nprocs + 128; ++i)
            warm.spawn("warm", [](TaskId) {});
    }
    return medianOf(3, [nprocs] {
        Scheduler holder;
        const std::uint64_t a0 = Fiber::stacksAllocated();
        while (Fiber::stacksAllocated() == a0)
            holder.spawn("hold", [](TaskId) {});
        const std::uint64_t reused0 = Fiber::stacksReused();
        Scheduler s;
        const auto t0 = Clock::now();
        for (int i = 0; i < nprocs; ++i)
            s.spawn("t", [](TaskId) {});
        s.run();
        const double ns = secondsBetween(t0, Clock::now()) * 1e9 / nprocs;
        mcdsm_assert(Fiber::stacksReused() == reused0,
                     "spawn calibration reused a cached stack");
        return ns;
    });
}

/** ns per first-touch page fault on freshly mapped anonymous memory. */
double
faultNs()
{
    constexpr std::size_t kBytes = std::size_t{64} << 20;
    const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return medianOf(3, [page] {
        void* p = mapAnonymous(kBytes);
        auto* bytes = static_cast<volatile char*>(p);
        const auto t0 = Clock::now();
        for (std::size_t off = 0; off < kBytes; off += page)
            bytes[off] = 1;
        const double ns = secondsBetween(t0, Clock::now()) * 1e9 /
                          static_cast<double>(kBytes / page);
        munmap(p, kBytes);
        return ns;
    });
}

/** ns per slow-path yield with @p nprocs tasks advancing and yielding. */
double
switchNs(int nprocs)
{
    constexpr int kYieldsPerTask = 64;
    return medianOf(3, [nprocs] {
        Scheduler s;
        for (int p = 0; p < nprocs; ++p) {
            s.spawn("t", [&s, p](TaskId) {
                for (int k = 0; k < kYieldsPerTask; ++k) {
                    s.advance(1 + (p * 7 + k * 3) % 13);
                    s.yield();
                }
            });
        }
        const auto t0 = Clock::now();
        s.run();
        const double secs = secondsBetween(t0, Clock::now());
        const double sw = static_cast<double>(
            std::max<std::uint64_t>(1, s.yieldSwitches()));
        return secs * 1e9 / sw;
    });
}

/** Random (src, dst) node pairs with src != dst. */
std::vector<std::pair<NodeId, NodeId>>
nodePairs(int nodes, std::uint64_t seed, int n)
{
    Rng rng(seed);
    std::vector<std::pair<NodeId, NodeId>> pairs(n);
    for (auto& pr : pairs) {
        pr.first = static_cast<NodeId>(rng.nextBounded(nodes));
        pr.second = static_cast<NodeId>(
            (pr.first + 1 + rng.nextBounded(nodes - 1)) % nodes);
    }
    return pairs;
}

/** ns per NetworkBackend::transfer of @p bytes between random nodes. */
double
transferNs(NetKind kind, int nodes, std::size_t bytes)
{
    constexpr int kOps = 1 << 16;
    const CostModel costs;
    const auto pairs = nodePairs(nodes, 0x7472616e73666572ULL, kOps);
    return medianOf(5, [&] {
        auto be = makeNetworkBackend(kind, costs, nodes);
        Time t = 0;
        std::uint64_t sink = 0;
        const auto t0 = Clock::now();
        for (const auto& [src, dst] : pairs) {
            t += 100;
            sink += static_cast<std::uint64_t>(
                be->transfer(src, dst, bytes, t));
        }
        const double ns = secondsBetween(t0, Clock::now()) * 1e9 / kOps;
        g_sink = g_sink + sink;
        return ns;
    });
}

/**
 * ns per one-sided verb (read, write, CAS, FAA in turn; reads and
 * writes of @p bytes); 0 on a backend without one-sided operations.
 */
double
verbNs(NetKind kind, int nodes, std::size_t bytes)
{
    const CostModel costs;
    if (!makeNetworkBackend(kind, costs, nodes)->supportsOneSided())
        return 0.0;
    constexpr int kOps = 1 << 16;
    const auto pairs = nodePairs(nodes, 0x7665726273ULL, kOps);
    return medianOf(5, [&] {
        auto be = makeNetworkBackend(kind, costs, nodes);
        Time t = 0;
        std::uint64_t sink = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < kOps; ++i) {
            const auto [src, dst] = pairs[i];
            t += 100;
            Time done = 0;
            switch (i & 3) {
              case 0: done = be->readRemote(src, dst, bytes, t); break;
              case 1: done = be->writeRemote(src, dst, bytes, t); break;
              case 2: done = be->atomicCas(src, dst, t); break;
              default: done = be->atomicFaa(src, dst, t); break;
            }
            sink += static_cast<std::uint64_t>(done);
        }
        const double ns = secondsBetween(t0, Clock::now()) * 1e9 / kOps;
        g_sink = g_sink + sink;
        return ns;
    });
}

/**
 * ns per MailboxSystem::send + tryReceive of a @p bytes message
 * between two endpoints of one node, inside a scheduler task.
 * Same-node delivery keeps the backend out, so the cost does not
 * double-count transfer_ns.
 */
double
mailboxNs(NetKind kind, int nprocs, std::size_t bytes)
{
    constexpr int kOps = 1 << 16;
    const CostModel costs;
    const Topology topo = Topology::standard(nprocs);
    return medianOf(5, [&] {
        auto be = makeNetworkBackend(kind, costs, topo.nodes);
        Scheduler sched;
        MailboxSystem mail(sched, *be, costs, topo);
        const ProcId dst = topo.procsPerNode > 1 ? 1 : 0;
        double ns = 0;
        sched.spawn("mailbox", [&](TaskId) {
            std::uint64_t sink = 0;
            const auto t0 = Clock::now();
            for (int i = 0; i < kOps; ++i) {
                Message m;
                m.type = 1;
                m.bytes = bytes;
                const Time at =
                    mail.send(0, dst, std::move(m), Transport::McBuffer);
                auto got = mail.tryReceive(dst, at);
                mcdsm_assert(got.has_value(),
                             "mailbox calibration lost a message");
                sink += got->bytes;
            }
            ns = secondsBetween(t0, Clock::now()) * 1e9 / kOps;
            g_sink = g_sink + sink;
        });
        sched.run();
        return ns;
    });
}

/**
 * ns per computeRuns and per applyRuns on a page dirtied in 64-byte
 * runs, spread evenly, to @p bytes modified bytes.
 */
std::pair<double, double>
diffNs(std::size_t bytes)
{
    constexpr int kOps = 2000;
    constexpr std::size_t kRun = 64;
    bytes = std::clamp<std::size_t>(bytes, kRun, kPageSize);
    const std::size_t runs = (bytes + kRun - 1) / kRun;
    const std::size_t stride = kPageSize / runs;
    std::vector<std::uint8_t> twin(kPageSize), page(kPageSize),
        target(kPageSize);
    for (std::size_t i = 0; i < kPageSize; ++i)
        twin[i] = static_cast<std::uint8_t>(i * 31 + 7);
    page = twin;
    for (std::size_t r = 0; r < runs; ++r) {
        for (std::size_t i = 0; i < kRun && r * stride + i < kPageSize; ++i)
            page[r * stride + i] ^= 0x5a;
    }
    FlatRuns out;
    const double create = medianOf(5, [&] {
        const auto t0 = Clock::now();
        for (int i = 0; i < kOps; ++i)
            computeRuns(page.data(), twin.data(), out);
        const double ns = secondsBetween(t0, Clock::now()) * 1e9 / kOps;
        g_sink = g_sink + out.dataBytes();
        return ns;
    });
    const double apply = medianOf(5, [&] {
        const auto t0 = Clock::now();
        for (int i = 0; i < kOps; ++i)
            applyRuns(target.data(), out);
        const double ns = secondsBetween(t0, Clock::now()) * 1e9 / kOps;
        g_sink = g_sink + target[kPageSize / 2];
        return ns;
    });
    return {create, apply};
}

/**
 * ns per CacheModel::access on a sweep whose L1 miss ratio is
 * @p miss_ratio: the address advances by miss_ratio lines per access
 * through a region larger than the modelled L2, so every new line
 * misses. A sweep, like the apps' array loops, keeps the model's
 * hit/miss branch predictable; i.i.d. random misses would not.
 */
double
cacheNs(double miss_ratio)
{
    constexpr int kOps = 1 << 18;
    constexpr std::uint64_t kRegion = std::uint64_t{64} << 20;
    const CostModel costs;
    std::vector<std::uint64_t> addrs(kOps);
    for (int i = 0; i < kOps; ++i) {
        addrs[i] = static_cast<std::uint64_t>(i * miss_ratio *
                                              kCacheLineSize) %
                   kRegion;
    }
    return medianOf(5, [&] {
        CacheModel cm(CacheConfig{}, costs);
        std::uint64_t sink = 0;
        const auto t0 = Clock::now();
        for (std::uint64_t a : addrs)
            sink += static_cast<std::uint64_t>(cm.access(a));
        const double ns = secondsBetween(t0, Clock::now()) * 1e9 / kOps;
        g_sink = g_sink + sink;
        return ns;
    });
}

/** Unit costs at the workload's P, network and input shape. */
int
calibrateJob(const Options& o)
{
    const Workload& w = *o.workload;
    const int nodes = Topology::standard(w.nprocs).nodes;
    Tracer tracer;
    Counts m;
    {
        SpanScope s(&tracer, "calibrate.sim.spawn");
        m["sim.spawn_ns"] = spawnNs(w.nprocs);
    }
    {
        SpanScope s(&tracer, "calibrate.host.fault");
        m["host.fault_ns"] = faultNs();
    }
    {
        SpanScope s(&tracer, "calibrate.sim.switch");
        m["sim.switch_ns"] = switchNs(w.nprocs);
    }
    {
        SpanScope s(&tracer, "calibrate.net.transfer");
        m["net.transfer_ns"] = transferNs(w.net, nodes, o.transferBytes);
    }
    {
        SpanScope s(&tracer, "calibrate.net.mailbox");
        m["net.mailbox_ns"] = mailboxNs(w.net, w.nprocs, o.messageBytes);
    }
    {
        SpanScope s(&tracer, "calibrate.net.verb");
        m["net.verb_ns"] = verbNs(w.net, nodes, o.verbBytes);
    }
    {
        SpanScope s(&tracer, "calibrate.treadmarks.diff");
        const auto [create, apply] = diffNs(o.diffBytes);
        m["treadmarks.diff_create_ns"] = create;
        m["treadmarks.diff_apply_ns"] = apply;
    }
    {
        SpanScope s(&tracer, "calibrate.cache.access");
        m["cache.access_ns"] = cacheNs(o.l1MissRatio);
    }
    printHeader(w, o.seed);
    std::printf(",\n\"unit_costs\": ");
    printCounts(m);
    std::printf(",\n");
    tracer.print(stdout);
    std::printf("}\n");
    return 0;
}

/**
 * Every config through runExperiment and through the phase-split
 * path: elapsed, messages, checksum bits and service statistics must
 * be identical.
 */
int
verifySplitJob(const Options& o)
{
    const std::vector<Config> configs = configsOf(*o.workload, o.checked);
    int bad = 0;
    for (const Config& c : configs) {
        RunOpts opts;
        opts.scale = c.scale;
        opts.seed = o.seed;
        opts.net = c.net;
        if (c.checks)
            opts.checks = CheckConfig::all();
        opts.memPool = true;
        const ExpResult ref =
            runExperiment(c.app, c.protocol, c.nprocs, opts);
        RunStats st;
        const ConfigResult r = runConfig(c, o.seed, nullptr, &st);
        std::string diffs;
        if (ref.elapsed != r.digest.elapsed)
            diffs += " elapsed";
        if (ref.stats.messages != r.digest.messages)
            diffs += " messages";
        if (bitsOf(ref.appResult.checksum) != bitsOf(r.digest.checksum))
            diffs += " checksum";
        if (ref.stats.service != st.service)
            diffs += " service";
        std::fprintf(stderr, "hostbench: verify-split %s:%s\n",
                     c.key().c_str(),
                     diffs.empty() ? " identical" : diffs.c_str());
        bad += diffs.empty() ? 0 : 1;
    }
    printHeader(*o.workload, o.seed);
    std::printf(", \"configs\": %zu, \"mismatches\": %d}\n", configs.size(),
                bad);
    return bad == 0 ? 0 : 1;
}

/** runSequential checksum of each app of the workload. */
int
referenceJob(const Options& o)
{
    const Workload& w = *o.workload;
    printHeader(w, o.seed);
    std::printf(", \"reference\": {");
    for (std::size_t i = 0; i < w.apps.size(); ++i) {
        RunOpts opts;
        opts.scale = w.scale;
        opts.seed = o.seed;
        opts.memPool = true;
        const double cks =
            runSequential(w.apps[i], opts).appResult.checksum;
        std::printf("%s\"%s\": {\"checksum\": %.17g, \"checksum_bits\": "
                    "\"0x%016llx\"}",
                    i ? ", " : "", w.apps[i].c_str(), cks,
                    static_cast<unsigned long long>(bitsOf(cks)));
    }
    std::printf("}}\n");
    return 0;
}

// ---- flags ----------------------------------------------------------------

std::uint64_t
parseUnsigned(const std::string& flag, const std::string& v)
{
    if (v.empty() || v.size() > 18 ||
        v.find_first_not_of("0123456789") != std::string::npos) {
        usageError(strprintf("%s: expected a non-negative integer, got '%s'",
                             flag.c_str(), v.c_str()));
    }
    return std::stoull(v);
}

double
parseRatio(const std::string& flag, const std::string& v)
{
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !(d >= 0.0 && d <= 1.0))
        usageError(strprintf("%s: expected a number in [0, 1], got '%s'",
                             flag.c_str(), v.c_str()));
    return d;
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(a + " needs a value");
            return argv[++i];
        };
        auto bytes = [&]() -> std::size_t {
            return static_cast<std::size_t>(std::min<std::uint64_t>(
                parseUnsigned(a, value()), kPageSize * 64));
        };
        if (a == "--workload") {
            const std::string v = value();
            for (const Workload& w : workloads()) {
                if (v == w.name)
                    o.workload = &w;
            }
            if (o.workload == nullptr)
                usageError("unknown workload '" + v + "'");
        } else if (a == "--seed") {
            o.seed = parseUnsigned(a, value());
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usageError("--trace must be 0 or 1, got '" + v + "'");
            o.trace = v == "1";
        } else if (a == "--checked") {
            o.checked = true;
        } else if (a == "--calibrate") {
            o.calibrate = true;
        } else if (a == "--verify-split") {
            o.verifySplit = true;
        } else if (a == "--reference") {
            o.reference = true;
        } else if (a == "--transfer-bytes") {
            o.transferBytes = bytes();
        } else if (a == "--message-bytes") {
            o.messageBytes = bytes();
        } else if (a == "--verb-bytes") {
            o.verbBytes = bytes();
        } else if (a == "--diff-bytes") {
            o.diffBytes = bytes();
        } else if (a == "--l1-miss-ratio") {
            o.l1MissRatio = parseRatio(a, value());
        } else {
            usageError("unknown flag '" + a + "'");
        }
    }
    if (o.workload == nullptr)
        usageError("--workload is required");
    return o;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options o = parseArgs(argc, argv);
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "hostbench: refusing to measure an unoptimised "
                         "build (configure with -DCMAKE_BUILD_TYPE=Release)\n");
    return 2;
#endif
    if (o.calibrate)
        return calibrateJob(o);
    if (o.verifySplit)
        return verifySplitJob(o);
    if (o.reference)
        return referenceJob(o);
    return passJob(o);
}
