/**
 * @file
 * Test-only oracle: the accelerator executor that drove every
 * instruction completion through a general event queue.
 *
 * This is the executor that the per-unit completion slots replaced,
 * kept verbatim (only the namespace, the folded-in event queue and
 * the free-function wrapper around Accelerator::run's report
 * assembly differ) so tests can require the production executor to
 * match it tick for tick, counter for counter and trace entry for
 * trace entry. The queue is a std::function min-heap ordered by
 * (tick, scheduling sequence).
 */

#ifndef CQ_TESTS_ACCELERATOR_EVENT_QUEUE_ORACLE_H
#define CQ_TESTS_ACCELERATOR_EVENT_QUEUE_ORACLE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "arch/accelerator.h"
#include "arch/config.h"
#include "arch/isa.h"
#include "arch/pe_array.h"
#include "arch/squ.h"
#include "common/logging.h"
#include "common/types.h"
#include "dram/dram_controller.h"
#include "energy/energy_model.h"

namespace cq::arch::oracle {

/** Min-heap of callbacks ordered by (tick, sequence number). */
class EventQueue
{
  public:
    Tick now() const { return now_; }

    void
    scheduleAt(Tick when, std::function<void()> action)
    {
        CQ_ASSERT_MSG(when >= now_,
                      "scheduling into the past: %llu < %llu",
                      static_cast<unsigned long long>(when),
                      static_cast<unsigned long long>(now_));
        heap_.push(Event{when, nextSeq_++, std::move(action)});
    }

    Tick
    run()
    {
        while (!heap_.empty()) {
            Event ev = heap_.top();
            heap_.pop();
            now_ = ev.when;
            ev.action();
        }
        return now_;
    }

  private:
    struct Event
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        std::function<void()> action;
    };

    struct Compare
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::priority_queue<Event, std::vector<Event>, Compare> heap_;
};

inline Unit
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

/** Internal executor state. */
struct Executor
{
    const CambriconQConfig &cfg;
    const Program &prog;
    EventQueue events;
    dram::DramController dram;
    PeArray pe;
    Squ squ;
    PerfReport report;

    std::vector<std::uint32_t> remainingDeps;
    std::vector<std::vector<std::uint32_t>> children;
    std::vector<Tick> doneAt;
    std::array<std::deque<std::uint32_t>, kNumUnits> queues;
    std::array<bool, kNumUnits> unitBusy{};
    std::size_t completed = 0;
    Tick lastDone = 0;
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
        const Tick now = events.now();
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

    /** Try to issue the head instruction of @p unit. */
    void
    tryIssue(Unit unit)
    {
        const auto u = static_cast<std::size_t>(unit);
        if (unitBusy[u] || queues[u].empty())
            return;
        const std::uint32_t idx = queues[u].front();
        if (remainingDeps[idx] > 0)
            return;
        queues[u].pop_front();
        unitBusy[u] = true;
        const Tick start = events.now();
        const Tick done = execute(idx);
        if (collectTrace) {
            report.trace.push_back(TraceEntry{
                idx, unit, prog[idx].phase, start, done});
        }
        events.scheduleAt(done, [this, idx, unit] {
            complete(idx, unit);
        });
    }

    void
    complete(std::uint32_t idx, Unit unit)
    {
        const auto u = static_cast<std::size_t>(unit);
        doneAt[idx] = events.now();
        lastDone = std::max(lastDone, events.now());
        ++completed;
        unitBusy[u] = false;
        for (std::uint32_t child : children[idx]) {
            CQ_ASSERT(remainingDeps[child] > 0);
            --remainingDeps[child];
        }
        // Dependence resolution may unblock any unit's head.
        for (std::size_t i = 0; i < kNumUnits; ++i)
            tryIssue(static_cast<Unit>(i));
    }

    void
    run()
    {
        std::string err;
        CQ_ASSERT_MSG(validateProgram(prog, &err), "%s", err.c_str());

        const std::size_t n = prog.size();
        remainingDeps.assign(n, 0);
        children.assign(n, {});
        doneAt.assign(n, kMaxTick);
        for (std::uint32_t i = 0; i < n; ++i) {
            remainingDeps[i] =
                static_cast<std::uint32_t>(prog[i].deps.size());
            for (std::uint32_t d : prog[i].deps)
                children[d].push_back(i);
            queues[static_cast<std::size_t>(unitFor(prog[i].op))]
                .push_back(i);
        }

        for (std::size_t i = 0; i < kNumUnits; ++i)
            tryIssue(static_cast<Unit>(i));
        events.run();

        CQ_ASSERT_MSG(completed == n,
                      "deadlock: %zu of %zu instructions completed",
                      completed, n);
        report.totalTicks = lastDone;
    }
};

/** Accelerator::run on the event-queue executor. */
inline PerfReport
runEventQueueExecutor(const CambriconQConfig &config,
                      const Program &program, bool collect_trace = false)
{
    Executor ex(config, program);
    ex.collectTrace = collect_trace;
    ex.run();
    ex.materializeActivity();

    PerfReport report = std::move(ex.report);
    report.configName = config.name;

    // Buffer capacities feed the SRAM energy model.
    report.activity.counter("buf.NBin.capacity") =
        static_cast<double>(config.nbinBytes);
    report.activity.counter("buf.SB.capacity") =
        static_cast<double>(config.sbBytes);
    report.activity.counter("buf.NBout.capacity") =
        static_cast<double>(config.nboutBytes);

    report.activity.merge(ex.dram.stats());
    report.dramDynamicPj = ex.dram.dynamicEnergy();
    report.dramStandbyPj = ex.dram.standbyEnergy(report.totalTicks);
    report.energy = energy::buildBreakdown(
        report.activity, report.dramDynamicPj, report.dramStandbyPj);
    // Static chip power over the makespan (mW * ns = pJ).
    report.energy.chipStaticPj =
        config.staticPowerMw * static_cast<double>(report.totalTicks);
    return report;
}

} // namespace cq::arch::oracle

#endif // CQ_TESTS_ACCELERATOR_EVENT_QUEUE_ORACLE_H
