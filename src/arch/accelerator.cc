/**
 * @file
 * Implementation of the accelerator timing simulator.
 */

#include "arch/accelerator.h"

#include <algorithm>
#include <deque>
#include <tuple>

#include "common/logging.h"

namespace cq::arch {

const char *
unitName(Unit unit)
{
    switch (unit) {
      case Unit::DmaLoad:  return "dma-load";
      case Unit::DmaStore: return "dma-store";
      case Unit::Pe:       return "pe-array";
      case Unit::Sfu:      return "sfu";
      case Unit::Ndp:      return "ndp";
    }
    return "?";
}

double
PerfReport::timeMs(double freq_ghz) const
{
    return static_cast<double>(totalTicks) / (freq_ghz * 1e6);
}

double
PerfReport::energyMj() const
{
    return energy.totalPj() * 1e-9;
}

double
PerfReport::phaseFraction(Phase phase) const
{
    double total = 0.0;
    for (double b : phaseBusy)
        total += b;
    if (total <= 0.0)
        return 0.0;
    return phaseBusy[static_cast<std::size_t>(phase)] / total;
}

namespace {

Unit
unitFor(Opcode op)
{
    switch (op) {
      case Opcode::CROSET:
      case Opcode::WGSTORE:
        return Unit::Ndp;
      case Opcode::VLOAD:
      case Opcode::SLOAD:
      case Opcode::QLOAD:
        return Unit::DmaLoad;
      case Opcode::VSTORE:
      case Opcode::SSTORE:
      case Opcode::QSTORE:
      case Opcode::QMOVE:
        return Unit::DmaStore;
      case Opcode::MM:
      case Opcode::CONV:
      case Opcode::VMUL:
      case Opcode::VADD:
      case Opcode::VFMUL:
      case Opcode::HMUL:
        return Unit::Pe;
      case Opcode::SFU:
        return Unit::Sfu;
    }
    return Unit::Sfu;
}

/** inFlight value of a unit that holds no instruction. */
constexpr std::uint32_t kIdle = ~std::uint32_t(0);

/**
 * Internal executor state. A unit holds at most one instruction, so
 * the pending completions are one slot per unit: the instruction in
 * flight, its completion tick and its issue sequence number. A unit's
 * head issues once every one of its dependences has retired, which one
 * flag per instruction records.
 */
struct Executor
{
    const CambriconQConfig &cfg;
    const Program &prog;
    dram::DramController dram;
    PeArray pe;
    Squ squ;
    PerfReport report;

    std::vector<bool> retired;
    std::array<std::deque<std::uint32_t>, kNumUnits> queues;
    std::array<std::uint32_t, kNumUnits> inFlight;
    std::array<Tick, kNumUnits> doneTick{};
    std::array<std::uint64_t, kNumUnits> issueSeq{};
    std::uint64_t nextSeq = 0;
    Tick now = 0;
    std::size_t completed = 0;
    bool collectTrace = false;

    /** @name Fast activity counters (hot path: no map lookups) */
    /** @{ */
    std::array<double, 5> peMacsByNibbles{}; // index = bits/4
    double peDequants = 0.0;
    double qbcRequants = 0.0;
    double sfuOps = 0.0;
    double squElements = 0.0;
    double ndpoElements = 0.0;
    /** Buffer traffic indexed by BufId: read/write bytes. */
    std::array<double, 4> bufReadBytes{};
    std::array<double, 4> bufWriteBytes{};
    /** @} */

    Executor(const CambriconQConfig &c, const Program &p)
        : cfg(c), prog(p), dram(c.dram), pe(c), squ(c)
    {
        inFlight.fill(kIdle);
    }

    void
    account(Phase phase, Unit unit, Tick busy)
    {
        report.phaseBusy[static_cast<std::size_t>(phase)] +=
            static_cast<double>(busy);
        report.unitBusy[static_cast<std::size_t>(unit)] +=
            static_cast<double>(busy);
    }

    /** Record buffer traffic counters for energy accounting. */
    void
    bufTraffic(BufId buf, Bytes read_bytes, Bytes write_bytes)
    {
        if (buf == BufId::None)
            return;
        const auto i = static_cast<std::size_t>(buf);
        bufReadBytes[i] += static_cast<double>(read_bytes);
        bufWriteBytes[i] += static_cast<double>(write_bytes);
    }

    /** Move the fast counters into the report's StatGroup. */
    void
    materializeActivity()
    {
        for (int nib = 1; nib <= 4; ++nib) {
            if (peMacsByNibbles[nib] > 0.0) {
                report.activity.add(
                    "pe.macs.int" + std::to_string(nib * 4),
                    peMacsByNibbles[nib]);
            }
        }
        report.activity.add("pe.dequants", peDequants);
        report.activity.add("qbc.requants", qbcRequants);
        report.activity.add("sfu.ops", sfuOps);
        report.activity.add("squ.elements", squElements);
        report.activity.add("ndpo.elements", ndpoElements);
        for (auto buf : {BufId::NBin, BufId::SB, BufId::NBout}) {
            const auto i = static_cast<std::size_t>(buf);
            const std::string base =
                std::string("buf.") + bufIdName(buf);
            report.activity.add(base + ".readBytes", bufReadBytes[i]);
            report.activity.add(base + ".writeBytes",
                                bufWriteBytes[i]);
        }
    }

    /** Execute instruction @p idx starting now; returns finish tick. */
    Tick
    execute(std::uint32_t idx)
    {
        const Instr &ins = prog[idx];
        Tick done = now + 1;

        switch (ins.op) {
          case Opcode::CROSET:
            done = now + 4; // four register writes over the DDR bus
            break;

          case Opcode::VLOAD: {
            done = dram.transfer(now, ins.addr, ins.bytes, false);
            bufTraffic(ins.buf, 0, ins.bytes);
            break;
          }
          case Opcode::VSTORE: {
            done = dram.transfer(now, ins.addr, ins.bytes, true);
            bufTraffic(ins.buf, ins.bytes, 0);
            break;
          }
          case Opcode::SLOAD:
          case Opcode::SSTORE: {
            // Stripe transfer: `elems` stripes of bytes/elems each,
            // separated by the `bytes2` stride -- the access pattern
            // of sub-tile extraction from a row-major tensor, which
            // pays the row-locality penalty in the DRAM model.
            const bool is_write = ins.op == Opcode::SSTORE;
            const std::uint64_t stripes =
                std::max<std::uint64_t>(ins.elems, 1);
            const Bytes per_stripe =
                std::max<Bytes>(ins.bytes / stripes, 1);
            // The DMA engine posts the whole descriptor list at once:
            // stripes overlap across banks (the controller's bus and
            // bank-timing state still serializes what must serialize).
            done = now;
            for (std::uint64_t i = 0; i < stripes; ++i) {
                done = std::max(
                    done, dram.transfer(now, ins.addr + i * ins.bytes2,
                                        per_stripe, is_write));
            }
            if (is_write)
                bufTraffic(ins.buf, ins.bytes, 0);
            else
                bufTraffic(ins.buf, 0, ins.bytes);
            break;
          }
          case Opcode::QLOAD: {
            // FP32 stream from DRAM through the SQU; quantized words
            // land in the target buffer.
            const Tick dram_done =
                dram.transfer(now, ins.addr, ins.bytes, false);
            const Tick squ_done =
                now + squ.streamCycles(ins.bytes, ins.ways);
            done = std::max(dram_done, squ_done);
            squElements += static_cast<double>(ins.elems) * ins.ways;
            bufTraffic(ins.buf, 0, ins.elems); // ~1 B/elem quantized
            if (squ_done > dram_done) {
                account(Phase::Quant, Unit::DmaLoad,
                        squ_done - dram_done);
            }
            break;
          }
          case Opcode::QSTORE: {
            // FP32 stream from NBout through the SQU; quantized words
            // cross the bus.
            const Bytes unq = ins.elems * 4;
            const Tick dram_done =
                dram.transfer(now, ins.addr, ins.bytes, true);
            const Tick squ_done =
                now + squ.streamCycles(unq, ins.ways);
            done = std::max(dram_done, squ_done);
            squElements += static_cast<double>(ins.elems) * ins.ways;
            bufTraffic(ins.buf, unq, 0);
            if (squ_done > dram_done) {
                account(Phase::Quant, Unit::DmaStore,
                        squ_done - dram_done);
            }
            break;
          }
          case Opcode::QMOVE: {
            // DRAM -> SQU -> DRAM requantization (e.g. the once-per-
            // minibatch weight quantization into the scratch copy).
            const Tick read_done =
                dram.transfer(now, ins.addr, ins.bytes, false);
            const Tick write_done =
                dram.transfer(now + 1, ins.addr2, ins.bytes2, true);
            const Tick squ_done =
                now + squ.streamCycles(ins.bytes, ins.ways);
            done = std::max({read_done, write_done, squ_done});
            squElements += static_cast<double>(ins.elems) * ins.ways;
            break;
          }
          case Opcode::WGSTORE: {
            CQ_ASSERT_MSG(cfg.ndpEnabled,
                          "WGSTORE requires the NDP engine");
            done = dram.ndpUpdate(now, ins.addr, ins.elems, 4);
            ndpoElements += static_cast<double>(ins.elems);
            bufTraffic(BufId::NBout, ins.elems * 4, 0);
            break;
          }
          case Opcode::MM:
          case Opcode::CONV: {
            done = now + pe.mmCycles(ins.m, ins.n, ins.k, ins.bitsA,
                                     ins.bitsB);
            const double macs = static_cast<double>(
                PeArray::macs(ins.m, ins.n, ins.k));
            const int bits = std::max(ins.bitsA, ins.bitsB);
            peMacsByNibbles[bits / 4] += macs;
            peDequants += static_cast<double>(ins.m) * ins.n;
            if (ins.phase == Phase::WG) {
                // The A operand of a WG GEMM is read transposed; the
                // QBC re-quantizes buffer lines whose words arrive
                // with mixed tags (Sec. IV-B2). One line = 32 words.
                qbcRequants +=
                    static_cast<double>(ins.m) * ins.k / 32.0;
            }
            // Operand/result buffer traffic.
            bufTraffic(BufId::NBin, static_cast<Bytes>(ins.m) * ins.k *
                                        ins.bitsA / 8, 0);
            bufTraffic(BufId::SB, static_cast<Bytes>(ins.k) * ins.n *
                                      ins.bitsB / 8, 0);
            bufTraffic(BufId::NBout, 0,
                       static_cast<Bytes>(ins.m) * ins.n * 4);
            break;
          }
          case Opcode::VMUL:
          case Opcode::VADD:
          case Opcode::VFMUL:
          case Opcode::HMUL: {
            done = now + pe.vectorCycles(ins.elems);
            peMacsByNibbles[4] += static_cast<double>(ins.elems);
            bufTraffic(BufId::NBout, ins.elems * 4, ins.elems * 4);
            break;
          }
          case Opcode::SFU: {
            const Tick cycles =
                (ins.elems + cfg.sfuElemsPerCycle - 1) /
                cfg.sfuElemsPerCycle;
            done = now + std::max<Tick>(cycles, 1);
            sfuOps += static_cast<double>(ins.elems);
            break;
          }
        }

        account(ins.phase, unitFor(ins.op), done - now);
        return done;
    }

    /** Issue the head instruction of unit @p u if it is ready. */
    void
    tryIssue(std::size_t u)
    {
        if (inFlight[u] != kIdle || queues[u].empty())
            return;
        const std::uint32_t idx = queues[u].front();
        for (std::uint32_t d : prog[idx].deps) {
            if (!retired[d])
                return;
        }
        queues[u].pop_front();
        const Tick done = execute(idx);
        CQ_ASSERT_MSG(done >= now, "completion in the past: %llu < %llu",
                      static_cast<unsigned long long>(done),
                      static_cast<unsigned long long>(now));
        if (collectTrace) {
            report.trace.push_back(TraceEntry{
                idx, static_cast<Unit>(u), prog[idx].phase, now, done});
        }
        inFlight[u] = idx;
        doneTick[u] = done;
        issueSeq[u] = nextSeq++;
    }

    /** Retire unit @p u's instruction at its completion tick. */
    void
    complete(std::size_t u)
    {
        const std::uint32_t idx = inFlight[u];
        now = doneTick[u];
        inFlight[u] = kIdle;
        ++completed;
        retired[idx] = true;
        // The retirement may unblock any unit's head.
        for (std::size_t i = 0; i < kNumUnits; ++i)
            tryIssue(i);
    }

    void
    run()
    {
        std::string err;
        CQ_ASSERT_MSG(validateProgram(prog, &err), "%s", err.c_str());

        const std::size_t n = prog.size();
        retired.assign(n, false);
        for (std::uint32_t i = 0; i < n; ++i)
            queues[static_cast<std::size_t>(unitFor(prog[i].op))]
                .push_back(i);

        for (std::size_t i = 0; i < kNumUnits; ++i)
            tryIssue(i);
        // Complete the earliest (tick, issue sequence) until no unit
        // holds an instruction.
        for (;;) {
            std::size_t next = kNumUnits;
            for (std::size_t u = 0; u < kNumUnits; ++u) {
                if (inFlight[u] != kIdle &&
                    (next == kNumUnits ||
                     std::tie(doneTick[u], issueSeq[u]) <
                         std::tie(doneTick[next], issueSeq[next])))
                    next = u;
            }
            if (next == kNumUnits)
                break;
            complete(next);
        }

        CQ_ASSERT_MSG(completed == n,
                      "deadlock: %zu of %zu instructions completed",
                      completed, n);
        report.totalTicks = now;
    }
};

} // namespace

Accelerator::Accelerator(CambriconQConfig config)
    : config_(std::move(config))
{
}

PerfReport
Accelerator::run(const Program &program, bool collect_trace)
{
    Executor ex(config_, program);
    ex.collectTrace = collect_trace;
    ex.run();
    ex.materializeActivity();

    PerfReport report = std::move(ex.report);
    report.configName = config_.name;

    // Buffer capacities feed the SRAM energy model.
    report.activity.counter("buf.NBin.capacity") =
        static_cast<double>(config_.nbinBytes);
    report.activity.counter("buf.SB.capacity") =
        static_cast<double>(config_.sbBytes);
    report.activity.counter("buf.NBout.capacity") =
        static_cast<double>(config_.nboutBytes);

    report.activity.merge(ex.dram.stats());
    report.dramDynamicPj = ex.dram.dynamicEnergy();
    report.dramStandbyPj = ex.dram.standbyEnergy(report.totalTicks);
    report.energy = energy::buildBreakdown(
        report.activity, report.dramDynamicPj, report.dramStandbyPj);
    // Static chip power over the makespan (mW * ns = pJ).
    report.energy.chipStaticPj =
        config_.staticPowerMw * static_cast<double>(report.totalTicks);
    return report;
}

} // namespace cq::arch
