/**
 * @file
 * The Cambricon-Q instruction set (paper Table V) and the program
 * representation executed by the timing simulator.
 *
 * Instructions are tensor-granular: one MM covers a whole PE-array
 * tile, one QLOAD streams a tile through the SQU into an on-chip
 * buffer. The compiler tags every instruction with the training phase
 * it belongs to (FW / NG / WG / WU plus the statistic and quantization
 * attribution buckets) so the simulator can reproduce the paper's
 * Fig. 12(b) breakdown, and with the index of the IR task (layer) that
 * emitted it.
 */

#ifndef CQ_ARCH_ISA_H
#define CQ_ARCH_ISA_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace cq::arch {

/** Opcodes of Table V (plus SFU ops the paper folds into "vector"). */
enum class Opcode : std::uint8_t
{
    // Control
    CROSET,   ///< set NDP/DDR constant register
    // Data I/O
    VLOAD,    ///< vector load (unquantized)
    VSTORE,   ///< vector store (unquantized)
    SLOAD,    ///< strided (stripe) load
    SSTORE,   ///< strided (stripe) store
    QLOAD,    ///< load with on-the-fly statistic+quantization (SQU)
    QSTORE,   ///< store with on-the-fly statistic+quantization (SQU)
    QMOVE,    ///< on-chip move with requantization (SQU + QBC)
    WGSTORE,  ///< store weight gradients and trigger NDP optimize
    // Compute
    MM,       ///< matrix multiply on the PE array
    CONV,     ///< 2-d convolution (im2col-lowered onto the PE array)
    VMUL,     ///< elementwise vector multiply
    VADD,     ///< elementwise vector add
    VFMUL,    ///< vector-scalar multiply
    HMUL,     ///< horizontal (reduction) multiply
    SFU,      ///< scalar-function-unit op (activation, softmax, ...)
};

const char *opcodeName(Opcode op);

/** Training-phase attribution buckets (paper Fig. 12(b)). */
enum class Phase : std::uint8_t
{
    FW,    ///< forward pass
    NG,    ///< computing gradients on neurons
    WG,    ///< computing gradients on weights
    WU,    ///< updating weights
    Stat,  ///< statistic analysis (separate pass on baselines)
    Quant, ///< quantization (separate pass on baselines)
};

const char *phaseName(Phase phase);
inline constexpr std::size_t kNumPhases = 6;

/** Instr::task of an instruction that no IR task emitted. */
inline constexpr std::uint32_t kNoTask = ~std::uint32_t(0);

/** On-chip buffer targeted by a data instruction. */
enum class BufId : std::uint8_t { None, NBin, SB, NBout };

const char *bufIdName(BufId buf);

/**
 * One decoded instruction. Fields are a union-of-needs across
 * opcodes; unused fields stay zero.
 */
struct Instr
{
    Opcode op = Opcode::CROSET;
    Phase phase = Phase::FW;

    /** @name Memory operands (loads/stores) */
    /** @{ */
    Addr addr = 0;
    Bytes bytes = 0;
    /** Second operand address (QMOVE destination, WGSTORE rows). */
    Addr addr2 = 0;
    /** Second operand size (QMOVE quantized write bytes). */
    Bytes bytes2 = 0;
    BufId buf = BufId::None;
    /** @} */

    /** @name Compute operands (MM/CONV: result m x n, reduction k) */
    /** @{ */
    std::uint32_t m = 0, n = 0, k = 0;
    /** Operand widths in bits (bit-serial passes = product / 16). */
    std::uint8_t bitsA = 8, bitsB = 8;
    /** @} */

    /** Element count for vector/SFU/WGSTORE ops. */
    std::uint64_t elems = 0;

    /** E2BQM ways for Q* instructions (1 = plain DQ). */
    std::uint8_t ways = 1;

    /** Indices of earlier instructions this one depends on; it
     *  issues once all of them have completed. */
    std::vector<std::uint32_t> deps;

    /** Index of the compiler::WorkloadIR task that emitted this
     *  instruction (the IR names its layer); kNoTask for CROSET and
     *  hand-built programs. */
    std::uint32_t task = kNoTask;

    /** Render as assembly-like text. */
    std::string toString() const;
};

/** A complete instruction stream. */
using Program = std::vector<Instr>;

/**
 * Fixed-width binary encoding of one instruction (dependences travel
 * out of band in the instruction buffer's scoreboard, so they are not
 * part of the architectural encoding). Eight 64-bit words:
 *
 *   word0: opcode(8) | phase(4) | buf(4) | bitsA(8) | bitsB(8) |
 *          ways(8) -- packed low to high
 *   word1: m(32) | n(32)      word2: k(32) | reserved
 *   word3: addr               word4: addr2
 *   word5: bytes              word6: bytes2
 *   word7: elems
 *
 * `deps` and `task` are compiler metadata and are not encoded; the
 * layout is an implementation contract checked by round-trip tests.
 */
struct EncodedInstr
{
    std::uint64_t words[8] = {};
};

/** Encode the architectural fields of @p instr. */
EncodedInstr encodeInstr(const Instr &instr);

/** Decode an instruction (deps come back empty, task as kNoTask). */
Instr decodeInstr(const EncodedInstr &encoded);

/**
 * Sanity-check dependence indices (must point backwards).
 * Accelerator::run checks every program it executes; code generation
 * does not check its own output.
 */
bool validateProgram(const Program &prog, std::string *error = nullptr);

} // namespace cq::arch

#endif // CQ_ARCH_ISA_H
