/**
 * @file
 * cqperf: the benchmark's workload program.
 *
 * Runs one closed-loop workload (the next operation starts when the
 * previous one returns) and prints one JSON object per line: the
 * set-up repetitions, every timed operation with the statistics its
 * output is checked against, and a closing record. It measures the
 * program from outside, by timing calls into public functions:
 *
 *   sim_seq, sim_cnn  compiler::generateProgram, arch::Accelerator::run,
 *                     baseline::simulateTpu; traced runs also replay each
 *                     program's memory instructions through a fresh
 *                     dram::DramController (transfer / ndpUpdate)
 *   train_hqt, _fp32  nn::QuantTrainer::{stepClassification,evalAccuracy}
 *
 * With --trace 1, untraced and traced operations alternate; during the
 * traced ones obs::TraceSession records the benchmark's own `bench.*`
 * spans plus the program's existing spans, and the trace is written to
 * --trace-file. perfbench/run.py turns the records into metrics and
 * checks them.
 *
 *   cqperf --workload W --seed N --seconds S --trace 0|1
 *          [--trace-file PATH] [--all-sizes]
 *
 * --all-sizes simulates every (network, config, minibatch size) of a
 * sim workload once, untimed; run.py --capture-goldens uses it.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arch/accelerator.h"
#include "arch/config.h"
#include "baseline/tpu_sim.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "compiler/codegen.h"
#include "compiler/workloads.h"
#include "dram/dram_controller.h"
#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/datasets.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/quant_trainer.h"
#include "obs/jsonw.h"
#include "obs/trace.h"

namespace {

using namespace cq;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Peak resident memory of the process so far, in MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Set-up samples per run. */
constexpr std::size_t kSetupSamples = 20;

/** Host time one set-up sample spans at least. */
constexpr double kSetupSampleS = 0.025;

/**
 * Thread-pool width of every timed operation. One thread: on a host
 * whose cores other tenants share, a second pool thread is sometimes
 * descheduled and the static partition then makes every step wait for
 * it, which splits step times into modes that flip from run to run. At
 * this width parallelFor runs inline; traced training runs measure the
 * pool in a separate episode at poolWidthWide().
 */
constexpr unsigned kPoolWidth = 1;

/** The program's own default pool width: one thread per hardware thread. */
unsigned
poolWidthWide()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "cqperf: %s\n", why.c_str());
    std::exit(2);
}

/** One JSON object per line on stdout. */
class Record
{
  public:
    explicit Record(const char *kind)
    {
        text_ = "{\"kind\":";
        obs::appendJsonString(text_, kind);
    }

    Record &num(const char *key, double v)
    {
        field(key);
        obs::appendJsonNumber(text_, v);
        return *this;
    }
    Record &str(const char *key, const std::string &v)
    {
        field(key);
        obs::appendJsonString(text_, v);
        return *this;
    }
    Record &nums(const char *key, const std::vector<double> &vs)
    {
        field(key);
        text_ += '[';
        for (std::size_t i = 0; i < vs.size(); ++i) {
            if (i > 0)
                text_ += ',';
            obs::appendJsonNumber(text_, vs[i]);
        }
        text_ += ']';
        return *this;
    }
    void emit()
    {
        std::printf("%s}\n", text_.c_str());
        std::fflush(stdout);
    }

  private:
    void field(const char *key)
    {
        text_ += ',';
        obs::appendJsonString(text_, key);
        text_ += ':';
    }
    std::string text_;
};

/**
 * Times kSetupSamples set-up samples spread evenly over the measured
 * loop, taken at operation boundaries whenever they are due and any left
 * over back to back at the end. One sample repeats the set-up back to
 * back for at least kSetupSampleS and records the mean time of one, so
 * that timer resolution and single slow set-ups do not decide it. The
 * host's speed changes for seconds at a time, so the samples are spread
 * over the run rather than taken together; run.py reduces them.
 */
class SetupSampler
{
  public:
    SetupSampler(std::function<void()> setup, double budget)
        : setup_(std::move(setup)), spacing_(budget / kSetupSamples)
    {
    }

    /** Take every sample that is due. */
    void
    poll()
    {
        while (times_.size() < kSetupSamples &&
               secondsSince(t0_) >=
                   spacing_ * static_cast<double>(times_.size()))
            once();
    }

    /** Complete the samples and emit them. */
    void
    finish()
    {
        while (times_.size() < kSetupSamples)
            once();
        Record("setup")
            .num("pool_width", kPoolWidth)
            .nums("setup_s", times_)
            .emit();
    }

  private:
    void
    once()
    {
        obs::TraceScope span("bench.setup");
        const auto t = Clock::now();
        std::size_t reps = 0;
        double elapsed = 0.0;
        do {
            setup_();
            ++reps;
            elapsed = secondsSince(t);
        } while (elapsed < kSetupSampleS);
        times_.push_back(elapsed / static_cast<double>(reps));
    }

    std::function<void()> setup_;
    double spacing_;
    Clock::time_point t0_ = Clock::now();
    std::vector<double> times_;
};

/** Pick one of @p n choices for stream @p salt of seed @p seed. */
std::size_t
pick(std::uint64_t seed, std::uint64_t salt, std::size_t n)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + salt);
    return static_cast<std::size_t>(rng.next() % n);
}

// ---------------------------------------------------------------- sim

enum class Target { Edge, EdgeNoNdp, Tpu };

const char *
targetName(Target t)
{
    switch (t) {
      case Target::Edge:      return "edge";
      case Target::EdgeNoNdp: return "edgeNoNdp";
      case Target::Tpu:       return "tpu";
    }
    return "?";
}

/** A Table VI network and the minibatch sizes a seed can choose. */
struct NetSpec
{
    const char *name;
    std::array<std::size_t, 3> sizes;
    std::function<compiler::WorkloadIR(std::size_t)> build;
};

/**
 * Sizes sit near the Table VI batch, so every seed keeps the paper's
 * working set while giving a different DRAM address stream. Each
 * network's sizes keep its program on the same side of 2^18
 * instructions as its Table VI size (Transformer-Base below, PTB-LSTM
 * above): growing the instruction vector past that capacity copies the
 * whole program and adds 25-35 MB to peak memory, so mixing sides would
 * split the memory metric by seed.
 */
std::vector<NetSpec>
simNetworks(const std::string &workload)
{
    if (workload == "sim_seq") {
        return {
            {"Transformer-Base", {250, 256, 260},
             [](std::size_t b) { return compiler::buildTransformerBase(b); }},
            {"PTB-LSTM", {990, 1000, 1010},
             [](std::size_t b) { return compiler::buildPtbLstm(b); }},
        };
    }
    return {
        {"AlexNet", {30, 32, 34},
         [](std::size_t b) { return compiler::buildAlexNet(b); }},
        {"ResNet-18", {30, 32, 34},
         [](std::size_t b) { return compiler::buildResNet18(b); }},
        {"GoogLeNet", {30, 32, 34},
         [](std::size_t b) { return compiler::buildGoogLeNet(b); }},
        {"SqueezeNet", {30, 32, 34},
         [](std::size_t b) { return compiler::buildSqueezeNet(b); }},
    };
}

std::vector<Target>
simTargets(const std::string &workload)
{
    if (workload == "sim_seq")
        return {Target::Edge};
    return {Target::Edge, Target::EdgeNoNdp, Target::Tpu};
}

struct SimItem
{
    std::string net;
    Target target;
    std::size_t batch;
    const compiler::WorkloadIR *ir;
    bool replayed = false;
};

/**
 * Replay the memory instructions of @p prog through a fresh controller,
 * with the opcode -> call mapping of the accelerator's executor. Each
 * instruction starts when the data bus frees, which keeps the
 * controller's nondecreasing-time contract.
 */
void
replayDram(const arch::Program &prog, const dram::DramConfig &cfg,
           const std::string &net, Target target)
{
    using arch::Opcode;
    const auto t0 = Clock::now();
    dram::DramController dram(cfg);
    {
        obs::TraceScope span("bench.dram.replay");
        for (const arch::Instr &ins : prog) {
            const Tick now = dram.busFreeAt();
            switch (ins.op) {
              case Opcode::VLOAD:
              case Opcode::QLOAD:
                dram.transfer(now, ins.addr, ins.bytes, false);
                break;
              case Opcode::VSTORE:
              case Opcode::QSTORE:
                dram.transfer(now, ins.addr, ins.bytes, true);
                break;
              case Opcode::SLOAD:
              case Opcode::SSTORE: {
                const std::uint64_t stripes =
                    std::max<std::uint64_t>(ins.elems, 1);
                const Bytes per_stripe =
                    std::max<Bytes>(ins.bytes / stripes, 1);
                for (std::uint64_t i = 0; i < stripes; ++i)
                    dram.transfer(now, ins.addr + i * ins.bytes2,
                                  per_stripe, ins.op == Opcode::SSTORE);
                break;
              }
              case Opcode::QMOVE:
                dram.transfer(now, ins.addr, ins.bytes, false);
                dram.transfer(now + 1, ins.addr2, ins.bytes2, true);
                break;
              case Opcode::WGSTORE:
                dram.ndpUpdate(now, ins.addr, ins.elems, 4);
                break;
              default:
                break;
            }
        }
    }
    const double seconds = secondsSince(t0);
    const StatGroup st = dram.stats();
    Record("replay")
        .str("net", net)
        .str("config", targetName(target))
        .num("replay_s", seconds)
        .num("bursts", st.get("dram.reads") + st.get("dram.writes"))
        .num("bus_bytes", st.get("dram.busBytes"))
        .emit();
}

/** Compile and simulate one item; emit its timing and statistics. */
void
simulateOnce(SimItem &item, const char *phase, bool replay)
{
    const compiler::CodegenOptions opts{};
    arch::PerfReport rep;
    double codegen_s = 0.0, run_s = 0.0;
    double instrs = 0.0, traffic = 0.0;
    const auto t0 = Clock::now();
    if (item.target == Target::Tpu) {
        obs::TraceScope span("bench.baseline.simulateTpu");
        rep = baseline::simulateTpu(*item.ir, opts);
        run_s = secondsSince(t0);
    } else {
        const arch::CambriconQConfig cfg =
            item.target == Target::Edge
                ? arch::CambriconQConfig::edge()
                : arch::CambriconQConfig::edgeNoNdp();
        arch::Program prog;
        {
            obs::TraceScope span("bench.compiler.generateProgram");
            prog = compiler::generateProgram(*item.ir, cfg, opts);
        }
        codegen_s = secondsSince(t0);
        const auto t1 = Clock::now();
        {
            obs::TraceScope span("bench.arch.run");
            arch::Accelerator acc(cfg);
            rep = acc.run(prog);
        }
        run_s = secondsSince(t1);
        instrs = static_cast<double>(prog.size());
        traffic = static_cast<double>(
            compiler::summarizeTraffic(prog).totalBytes());
        if (replay && !item.replayed) {
            replayDram(prog, cfg.dram, item.net, item.target);
            item.replayed = true;
        }
    }
    const double total_s = codegen_s + run_s;

    const StatGroup &a = rep.activity;
    const auto &e = rep.energy;
    std::vector<double> unitBusy(rep.unitBusy.begin(), rep.unitBusy.end());
    std::vector<double> phaseBusy(rep.phaseBusy.begin(),
                                  rep.phaseBusy.end());
    Record("sim")
        .str("phase", phase)
        .str("net", item.net)
        .str("config", targetName(item.target))
        .num("batch", static_cast<double>(item.batch))
        .num("total_s", total_s)
        .num("codegen_s", codegen_s)
        .num("run_s", run_s)
        .num("instrs", instrs)
        .num("traffic_bytes", traffic)
        .num("ticks", static_cast<double>(rep.totalTicks))
        .num("energy_pj", e.totalPj())
        .num("acc_pj", e.accPj + e.chipStaticPj)
        .num("buf_pj", e.bufPj)
        .num("ddr_pj", e.ddrDynamicPj + e.ddrStandbyPj)
        .num("dram_dynamic_pj", rep.dramDynamicPj)
        .num("dram_standby_pj", rep.dramStandbyPj)
        .num("reads", a.get("dram.reads"))
        .num("writes", a.get("dram.writes"))
        .num("activates", a.get("dram.activates"))
        .num("row_hits", a.get("dram.rowHits"))
        .num("row_misses", a.get("dram.rowMisses"))
        .num("refreshes", a.get("dram.refreshes"))
        .num("bus_bytes", a.get("dram.busBytes"))
        .num("ndp_row_groups", a.get("dram.ndpRowGroups"))
        .num("pe_macs", a.sumPrefix("pe.macs."))
        .num("squ_elements", a.get("squ.elements"))
        .num("qbc_requants", a.get("qbc.requants"))
        .nums("unit_busy", unitBusy)
        .nums("phase_busy", phaseBusy)
        .emit();
}

/**
 * One traced stretch of a traced run: tracing is on, and everything the
 * stretch records nests in one span (`bench.loop`, or `bench.loop.pool`
 * for the full-width pool episode), whose self time is the part of the
 * stretch no other span covers.
 */
class TracedWindow
{
  public:
    explicit TracedWindow(const char *name = "bench.loop")
    {
        obs::TraceSession::instance().setEnabled(true);
        span_.emplace(name);
    }
    ~TracedWindow()
    {
        span_.reset();
        obs::TraceSession::instance().setEnabled(false);
    }
    TracedWindow(const TracedWindow &) = delete;
    TracedWindow &operator=(const TracedWindow &) = delete;

  private:
    std::optional<obs::TraceScope> span_;
};

/**
 * Round-robin over @p items until @p budget seconds have passed and
 * every item ran at least once. A traced run simulates each item twice
 * in a row, untraced and traced, alternating which goes first, so the
 * tracing overhead compares like with like.
 */
void
simLoop(std::vector<SimItem> &items, double budget, bool trace,
        SetupSampler &setup)
{
    const auto t0 = Clock::now();
    std::size_t ops = 0;
    double first_pass_rss = 0.0;
    while (ops < items.size() || secondsSince(t0) < budget) {
        setup.poll();
        SimItem &item = items[ops % items.size()];
        for (int half = 0; half < (trace ? 2 : 1); ++half) {
            if (trace && (half + ops) % 2 == 1) {
                TracedWindow window;
                simulateOnce(item, "traced", true);
            } else {
                simulateOnce(item, "untraced", false);
            }
        }
        if (++ops == items.size())
            first_pass_rss = peakRssMb();
    }
    Record("loop")
        .num("loop_s", secondsSince(t0))
        .num("first_pass_peak_rss_mb", first_pass_rss)
        .emit();
}

void
runSim(const std::string &workload, std::uint64_t seed, double seconds,
       bool trace, bool all_sizes)
{
    const std::vector<NetSpec> nets = simNetworks(workload);
    const std::vector<Target> targets = simTargets(workload);

    if (all_sizes) {
        for (const NetSpec &n : nets) {
            for (std::size_t b : n.sizes) {
                const compiler::WorkloadIR ir = n.build(b);
                for (Target t : targets) {
                    SimItem item{n.name, t, b, &ir};
                    simulateOnce(item, "capture", false);
                }
            }
        }
        return;
    }

    // Set-up: lowering every network of the set to the workload IR.
    std::vector<std::size_t> batch(nets.size());
    for (std::size_t i = 0; i < nets.size(); ++i)
        batch[i] = nets[i].sizes[pick(seed, i + 1, nets[i].sizes.size())];
    std::vector<compiler::WorkloadIR> irs;
    SetupSampler setup(
        [&] {
            std::vector<compiler::WorkloadIR> built;
            for (std::size_t i = 0; i < nets.size(); ++i)
                built.push_back(nets[i].build(batch[i]));
            if (irs.empty())
                irs = std::move(built);
        },
        seconds);
    setup.poll();

    std::vector<SimItem> items;
    for (std::size_t i = 0; i < nets.size(); ++i)
        for (Target t : targets)
            items.push_back(SimItem{nets[i].name, t, batch[i], &irs[i]});

    simLoop(items, seconds, trace, setup);
    setup.finish();
}

// -------------------------------------------------------------- train

/** Steps per training episode; accuracy is checked after each. */
constexpr int kEpisodeSteps = 200;
constexpr std::size_t kTrainBatch = 32;
constexpr std::size_t kEvalSize = 512;

/**
 * The Table VIII ResNet-18 CNN stand-in, as the table8_accuracy
 * workload builds it: conv(1->8) + ReLU + 2x2 max-pool, three
 * conv(->16) + ReLU, global average pool, linear head.
 */
nn::Network
makeResNet18StandIn(std::uint64_t seed)
{
    const std::size_t c1 = 8, c2 = 16, classes = 4;
    Rng rng(seed);
    nn::Network net;
    net.add(std::make_unique<nn::Conv2d>(
        "conv1", Conv2dGeometry{1, c1, 3, 3, 1, 1}, rng));
    net.add(std::make_unique<nn::Activation>("relu1", nn::ActKind::ReLU));
    net.add(std::make_unique<nn::MaxPool2d>("pool1", 2, 2));
    for (int d = 0; d < 3; ++d) {
        const std::string tag = std::to_string(d + 2);
        net.add(std::make_unique<nn::Conv2d>(
            "conv" + tag, Conv2dGeometry{d == 0 ? c1 : c2, c2, 3, 3, 1, 1},
            rng));
        net.add(std::make_unique<nn::Activation>("relu" + tag,
                                                 nn::ActKind::ReLU));
    }
    net.add(std::make_unique<nn::GlobalAvgPool>("gap"));
    net.add(std::make_unique<nn::Linear>("fc", c2, classes, rng));
    return net;
}

/** Zhang'20+HQT or FP32, with table8_accuracy's Adam settings. */
nn::QuantTrainerConfig
trainerConfig(bool hqt)
{
    nn::QuantTrainerConfig cfg;
    cfg.algorithm = hqt ? quant::AlgorithmConfig::zhang2020Hqt(256)
                        : quant::AlgorithmConfig::fp32();
    cfg.optimizer.kind = nn::OptimizerKind::Adam;
    cfg.optimizer.lr = 3e-3;
    return cfg;
}

/** Dataset, network and trainer of one training episode. */
struct TrainState
{
    nn::PatternImageDataset data;
    nn::Network net;
    nn::QuantTrainer trainer;
    nn::Batch eval;

    TrainState(std::uint64_t seed, bool hqt)
        : data(4, 1, 12, 12, 1.2, seed), net(makeResNet18StandIn(seed + 1)),
          trainer(net, trainerConfig(hqt)), eval(data.evalSet(kEvalSize))
    {
    }
};

/**
 * Train episodes of kEpisodeSteps steps, each on a fresh TrainState,
 * until @p budget seconds have passed and one episode completed. A cut
 * episode skips its accuracy evaluation. A traced run cycles through an
 * untraced episode, a traced one, and a traced one with the pool at
 * poolWidthWide() (`traced_pool`, which measures the pool and checks
 * that the result does not depend on the width), and completes one of
 * each.
 */
void
trainLoop(std::uint64_t seed, bool hqt, double budget, bool trace,
          SetupSampler &setup)
{
    static const char *const kPhases[] = {"untraced", "traced",
                                          "traced_pool"};
    const auto t0 = Clock::now();
    const int min_episodes = trace ? 3 : 1;
    int completed = 0;
    double first_pass_rss = 0.0;
    bool stop = false;
    for (int episode = 0; !stop; ++episode) {
        const int phase = trace ? episode % 3 : 0;
        const unsigned width = phase == 2 ? poolWidthWide() : kPoolWidth;
        ThreadPool::instance().setNumThreads(width);
        std::optional<TracedWindow> window;
        if (phase > 0)
            window.emplace(phase == 2 ? "bench.loop.pool" : "bench.loop");
        TrainState st(seed, hqt);
        std::vector<double> steps, losses;
        for (int s = 0; s < kEpisodeSteps; ++s) {
            if (completed >= min_episodes && secondsSince(t0) >= budget) {
                stop = true;
                break;
            }
            setup.poll();
            const nn::Batch b = st.data.sample(kTrainBatch);
            const auto ts = Clock::now();
            double loss;
            {
                obs::TraceScope span("bench.nn.stepClassification");
                loss = st.trainer.stepClassification(b.inputs, b.labels);
            }
            steps.push_back(secondsSince(ts));
            losses.push_back(loss);
        }
        Record rec("train");
        rec.str("phase", kPhases[phase])
            .num("pool_width", width)
            .nums("step_s", steps)
            .nums("loss", losses);
        if (static_cast<int>(steps.size()) == kEpisodeSteps) {
            const auto te = Clock::now();
            double acc;
            {
                obs::TraceScope span("bench.nn.evalAccuracy");
                acc = st.trainer.evalAccuracy(st.eval.inputs,
                                              st.eval.labels);
            }
            rec.num("eval_s", secondsSince(te)).num("accuracy_pct", 100.0 * acc);
            if (++completed == 1)
                first_pass_rss = peakRssMb();
            stop = stop || (completed >= min_episodes &&
                            secondsSince(t0) >= budget);
        }
        rec.emit();
    }
    ThreadPool::instance().setNumThreads(kPoolWidth);
    Record("loop")
        .num("loop_s", secondsSince(t0))
        .num("first_pass_peak_rss_mb", first_pass_rss)
        .num("batch", static_cast<double>(kTrainBatch))
        .emit();
}

void
runTrain(const std::string &workload, std::uint64_t seed, double seconds,
         bool trace)
{
    const bool hqt = workload == "train_hqt";
    // Set-up: dataset, network, trainer and evaluation-set construction.
    SetupSampler setup([&] { TrainState st(seed, hqt); }, seconds);
    trainLoop(seed, hqt, seconds, trace, setup);
    setup.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_file;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    bool all_sizes = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--all-sizes") {
            all_sizes = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            workload = v;
        } else if (flag == "--seed") {
            seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            seconds = std::strtod(v.c_str(), &end);
        } else if (flag == "--trace") {
            trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
        } else if (flag == "--trace-file") {
            trace_file = v;
        } else {
            usage("unknown flag " + flag);
        }
        if (end != nullptr && (*end != '\0' || v.empty()))
            usage(flag + " got '" + v + "'");
    }
    const bool sim = workload == "sim_seq" || workload == "sim_cnn";
    const bool train = workload == "train_hqt" || workload == "train_fp32";
    if (!sim && !train)
        usage("--workload must be sim_seq, sim_cnn, train_hqt or train_fp32");
    if (!all_sizes && (seconds <= 0.0 || (trace != 0 && trace != 1) ||
                       (trace == 1 && trace_file.empty())))
        usage("needs --seconds > 0, --trace 0|1 and, when tracing, "
              "--trace-file");
    if (all_sizes && !sim)
        usage("--all-sizes applies to sim workloads only");

    ThreadPool::instance().setNumThreads(kPoolWidth);
    if (sim)
        runSim(workload, seed, seconds, trace == 1, all_sizes);
    else
        runTrain(workload, seed, seconds, trace == 1);

    if (trace == 1 &&
        !obs::TraceSession::instance().writeChromeTrace(trace_file))
        return 1;
    return 0;
}
