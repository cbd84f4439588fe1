/**
 * @file
 * Compiler/simulator introspection: lower a workload to the
 * Cambricon-Q instruction stream, disassemble a window of it, and run
 * it with tracing enabled to print per-unit utilization and a
 * coarse-grained text timeline of the load/compute/store overlap.
 *
 * Usage: inspect_program [tiny|alexnet|resnet18|...] [start [count]]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "arch/accelerator.h"
#include "compiler/codegen.h"
#include "compiler/workloads.h"

using namespace cq;

namespace {

compiler::WorkloadIR
pickWorkload(const std::string &name)
{
    if (name == "alexnet")
        return compiler::buildAlexNet();
    if (name == "resnet18")
        return compiler::buildResNet18();
    if (name == "googlenet")
        return compiler::buildGoogLeNet();
    if (name == "squeezenet")
        return compiler::buildSqueezeNet();
    if (name == "transformer")
        return compiler::buildTransformerBase();
    if (name == "lstm")
        return compiler::buildPtbLstm();
    return compiler::buildTinyCnn();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string which = argc > 1 ? argv[1] : "tiny";
    const std::size_t start =
        argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 0;
    const std::size_t count =
        argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 24;

    const compiler::WorkloadIR ir = pickWorkload(which);
    const auto cfg = arch::CambriconQConfig::edge();
    const arch::Program prog =
        compiler::generateProgram(ir, cfg, compiler::CodegenOptions{});

    // ---- static program summary ----
    std::size_t by_op[32] = {};
    for (const auto &ins : prog)
        ++by_op[static_cast<std::size_t>(ins.op)];
    const auto traffic = compiler::summarizeTraffic(prog);
    std::printf("%s: %zu instructions, %.2f GB loads, %.2f GB "
                "stores, %.2f GB full-precision\n\n",
                ir.name.c_str(), prog.size(), traffic.loadBytes / 1e9,
                traffic.storeBytes / 1e9,
                traffic.fullPrecisionBytes / 1e9);
    std::printf("opcode histogram:\n");
    for (std::size_t op = 0; op < 32; ++op) {
        if (by_op[op] > 0) {
            std::printf("  %-8s %8zu\n",
                        arch::opcodeName(
                            static_cast<arch::Opcode>(op)),
                        by_op[op]);
        }
    }

    // ---- disassembly window ----
    std::printf("\ndisassembly [%zu, %zu):\n", start,
                std::min(prog.size(), start + count));
    for (std::size_t i = start;
         i < std::min(prog.size(), start + count); ++i) {
        const arch::Instr &ins = prog[i];
        std::printf("  %6zu: %s ; %s\n", i, ins.toString().c_str(),
                    ins.task == arch::kNoTask
                        ? "-"
                        : ir.tasks[ins.task].layer().c_str());
    }

    // ---- traced execution ----
    arch::Accelerator acc(cfg);
    const auto report = acc.run(prog, /*collect_trace=*/true);
    std::printf("\nexecution: %llu cycles (%.3f ms), %zu trace "
                "entries\n",
                static_cast<unsigned long long>(report.totalTicks),
                report.timeMs(), report.trace.size());
    std::printf("unit utilization:\n");
    for (std::size_t u = 0; u < arch::kNumUnits; ++u) {
        std::printf("  %-10s %5.1f%%\n",
                    arch::unitName(static_cast<arch::Unit>(u)),
                    100.0 * report.unitBusy[u] /
                        static_cast<double>(report.totalTicks));
    }

    // ---- coarse text timeline: 64 buckets x 5 units ----
    const std::size_t buckets = 64;
    const double per_bucket =
        static_cast<double>(report.totalTicks) / buckets;
    std::printf("\ntimeline (each column = %.0f cycles; '#' busy > "
                "50%%, '+' > 10%%):\n",
                per_bucket);
    for (std::size_t u = 0; u < arch::kNumUnits; ++u) {
        double busy[64] = {};
        for (const auto &e : report.trace) {
            if (static_cast<std::size_t>(e.unit) != u)
                continue;
            const double b0 = e.start / per_bucket;
            const double b1 =
                std::max(static_cast<double>(e.end),
                         static_cast<double>(e.start) + 1.0) /
                per_bucket;
            for (std::size_t b = static_cast<std::size_t>(b0);
                 b < std::min<std::size_t>(buckets,
                                           static_cast<std::size_t>(
                                               b1) + 1);
                 ++b) {
                const double lo =
                    std::max(static_cast<double>(b) * per_bucket,
                             static_cast<double>(e.start));
                const double hi = std::min(
                    (static_cast<double>(b) + 1.0) * per_bucket,
                    static_cast<double>(e.end));
                if (hi > lo)
                    busy[b] += hi - lo;
            }
        }
        std::printf("  %-10s ",
                    arch::unitName(static_cast<arch::Unit>(u)));
        for (std::size_t b = 0; b < buckets; ++b) {
            const double frac = busy[b] / per_bucket;
            std::putchar(frac > 0.5 ? '#' : (frac > 0.1 ? '+' : '.'));
        }
        std::putchar('\n');
    }
    return 0;
}
