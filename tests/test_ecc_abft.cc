/**
 * @file
 * Tests of the in-situ fault-correction tiers (DESIGN.md §5.4): the
 * SEC-DED Hamming(72,64) codec and its sideband array, the coded-word
 * fault-injection surface, ABFT-checksummed GEMM (FP32 and quantized
 * datapaths), the checkpoint corruption diagnostics, and the
 * end-to-end trainer contract — an ECC-protected faulted run matches
 * the fault-free run bit for bit when every upset is single-bit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <unistd.h>
#include <vector>

#include "arch/quantized_gemm.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "dram/ecc.h"
#include "nn/activation.h"
#include "nn/datasets.h"
#include "nn/guard/checkpoint.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "nn/quant_trainer.h"
#include "sim/faults/fault_injector.h"
#include "tensor/abft.h"
#include "tensor/tensor_ops.h"

namespace cq {
namespace {

// ------------------------------------------------------------ Ecc codec

TEST(Ecc, CleanWordDecodesOk)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t data = rng.next();
        const std::uint8_t check = dram::eccEncodeWord(data);
        const dram::EccDecode d = dram::eccDecodeWord(data, check);
        EXPECT_EQ(d.status, dram::EccStatus::Ok);
        EXPECT_EQ(d.data, data);
        EXPECT_EQ(d.check, check);
        EXPECT_EQ(d.correctedBit, -1);
    }
}

TEST(Ecc, EverySingleBitPositionCorrects)
{
    // All 72 coded-bit positions: 64 data bits and 8 check bits.
    Rng rng(2);
    for (int trial = 0; trial < 8; ++trial) {
        const std::uint64_t data = rng.next();
        const std::uint8_t check = dram::eccEncodeWord(data);
        for (std::size_t p = 0; p < dram::kEccCodedBits; ++p) {
            std::uint64_t bad_data = data;
            std::uint8_t bad_check = check;
            if (p < dram::kEccDataBits)
                bad_data ^= 1ull << p;
            else
                bad_check ^= static_cast<std::uint8_t>(
                    1u << (p - dram::kEccDataBits));
            const dram::EccDecode d =
                dram::eccDecodeWord(bad_data, bad_check);
            EXPECT_EQ(d.status, dram::EccStatus::CorrectedSingle)
                << "bit " << p;
            EXPECT_EQ(d.data, data) << "bit " << p;
            EXPECT_EQ(d.check, check) << "bit " << p;
            EXPECT_EQ(d.correctedBit, static_cast<int>(p));
        }
    }
}

TEST(Ecc, AllDoubleBitPairsDetectedNeverMiscorrected)
{
    // Every unordered pair of distinct coded-bit positions: the
    // decoder must report DoubleDetected and must not "repair" the
    // word into a third value (SEC-DED's no-miscorrection property).
    Rng rng(3);
    const std::uint64_t data = rng.next();
    const std::uint8_t check = dram::eccEncodeWord(data);
    std::size_t pairs = 0;
    for (std::size_t p = 0; p < dram::kEccCodedBits; ++p) {
        for (std::size_t q = p + 1; q < dram::kEccCodedBits; ++q) {
            std::uint64_t bad_data = data;
            std::uint8_t bad_check = check;
            for (std::size_t bit : {p, q}) {
                if (bit < dram::kEccDataBits)
                    bad_data ^= 1ull << bit;
                else
                    bad_check ^= static_cast<std::uint8_t>(
                        1u << (bit - dram::kEccDataBits));
            }
            const dram::EccDecode d =
                dram::eccDecodeWord(bad_data, bad_check);
            ASSERT_EQ(d.status, dram::EccStatus::DoubleDetected)
                << "pair (" << p << "," << q << ")";
            // Pass-through, not a miscorrection.
            ASSERT_EQ(d.data, bad_data);
            ASSERT_EQ(d.check, bad_check);
            ++pairs;
        }
    }
    EXPECT_EQ(pairs, dram::kEccCodedBits *
                         (dram::kEccCodedBits - 1) / 2); // 2556
}

TEST(Ecc, SeededRoundTripFuzz)
{
    Rng rng(0xF022);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t data = rng.next();
        const std::uint8_t check = dram::eccEncodeWord(data);
        const std::size_t flips = rng.below(3); // 0, 1 or 2
        std::uint64_t bad_data = data;
        std::uint8_t bad_check = check;
        std::size_t p1 = 0, p2 = 0;
        if (flips >= 1) {
            p1 = rng.below(dram::kEccCodedBits);
            if (p1 < dram::kEccDataBits)
                bad_data ^= 1ull << p1;
            else
                bad_check ^= static_cast<std::uint8_t>(
                    1u << (p1 - dram::kEccDataBits));
        }
        if (flips == 2) {
            do {
                p2 = rng.below(dram::kEccCodedBits);
            } while (p2 == p1);
            if (p2 < dram::kEccDataBits)
                bad_data ^= 1ull << p2;
            else
                bad_check ^= static_cast<std::uint8_t>(
                    1u << (p2 - dram::kEccDataBits));
        }
        const dram::EccDecode d =
            dram::eccDecodeWord(bad_data, bad_check);
        switch (flips) {
          case 0:
            ASSERT_EQ(d.status, dram::EccStatus::Ok);
            ASSERT_EQ(d.data, data);
            break;
          case 1:
            ASSERT_EQ(d.status, dram::EccStatus::CorrectedSingle);
            ASSERT_EQ(d.data, data);
            ASSERT_EQ(d.check, check);
            break;
          default:
            ASSERT_EQ(d.status, dram::EccStatus::DoubleDetected);
            break;
        }
    }
}

// -------------------------------------------------------- Ecc sideband

std::vector<float>
randomFloats(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (float &x : v)
        x = static_cast<float>(rng.gaussian());
    return v;
}

/** Flip bit @p bit of float @p idx in place. */
void
flipFloatBit(float *data, std::size_t idx, unsigned bit)
{
    std::uint32_t u;
    std::memcpy(&u, &data[idx], sizeof(u));
    u ^= 1u << bit;
    std::memcpy(&data[idx], &u, sizeof(u));
}

TEST(EccArray, CorrectsFlippedFloatBitsIncludingOddTail)
{
    for (std::size_t n : {8u, 7u, 1u}) { // even, odd, single
        std::vector<float> buf = randomFloats(n, 11);
        const std::vector<float> orig = buf;
        dram::EccProtectedArray ecc(n);
        EXPECT_EQ(ecc.numWords(), (n + 1) / 2);
        ecc.encodeAll(buf.data());

        flipFloatBit(buf.data(), n - 1, 30); // exponent bit
        flipFloatBit(buf.data(), 0, 3);      // mantissa bit
        const auto rep = ecc.correctAll(buf.data());
        EXPECT_EQ(rep.scanned, ecc.numWords());
        // n == 1: both flips share the single word -> double-bit.
        EXPECT_EQ(rep.corrected, n == 1 ? 0u : 2u);
        EXPECT_EQ(rep.uncorrectable, n == 1 ? 1u : 0u);
        if (n > 1) {
            EXPECT_EQ(0, std::memcmp(buf.data(), orig.data(),
                                     n * sizeof(float)));
            // A second pass finds nothing left to fix.
            const auto again = ecc.correctAll(buf.data());
            EXPECT_EQ(again.corrected, 0u);
            EXPECT_EQ(again.uncorrectable, 0u);
        }
    }
}

TEST(EccArray, DoubleBitWordDetectedNotRepaired)
{
    std::vector<float> buf = randomFloats(4, 12);
    dram::EccProtectedArray ecc(buf.size());
    ecc.encodeAll(buf.data());
    // Two flips in word 0 (floats 0 and 1 share the coded word).
    flipFloatBit(buf.data(), 0, 5);
    flipFloatBit(buf.data(), 1, 9);
    const std::vector<float> damaged = buf;
    const auto rep = ecc.correctAll(buf.data());
    EXPECT_EQ(rep.corrected, 0u);
    EXPECT_EQ(rep.uncorrectable, 1u);
    EXPECT_EQ(0, std::memcmp(buf.data(), damaged.data(),
                             buf.size() * sizeof(float)));
}

TEST(EccArray, ScrubCursorWrapsDeterministically)
{
    const std::size_t n = 20; // 10 words
    std::vector<float> buf = randomFloats(n, 13);
    const std::vector<float> orig = buf;
    dram::EccProtectedArray ecc(n);
    ecc.encodeAll(buf.data());

    // Corrupt one bit in the last word; a 4-word sweep starting at
    // the cursor (0) misses it twice, then the wrap reaches it.
    flipFloatBit(buf.data(), n - 1, 17);
    auto r1 = ecc.scrub(buf.data(), 4); // words 0..3
    auto r2 = ecc.scrub(buf.data(), 4); // words 4..7
    EXPECT_EQ(r1.corrected + r2.corrected, 0u);
    auto r3 = ecc.scrub(buf.data(), 4); // words 8, 9, wrap to 0, 1
    EXPECT_EQ(r3.corrected, 1u);
    EXPECT_EQ(0, std::memcmp(buf.data(), orig.data(),
                             n * sizeof(float)));
    // Sweeping more words than exist clamps to one full pass.
    auto r4 = ecc.scrub(buf.data(), 1000);
    EXPECT_EQ(r4.scanned, ecc.numWords());
}

// ------------------------------------------- coded injection surface

TEST(FaultInjectorCoded, FlipsLandOnDataAndCheckBits)
{
    const std::size_t n = 4096;
    std::vector<float> buf = randomFloats(n, 21);
    const std::vector<float> orig = buf;
    dram::EccProtectedArray ecc(n);
    ecc.encodeAll(buf.data());
    std::vector<std::uint8_t> orig_check(
        ecc.checkBits(), ecc.checkBits() + ecc.numWords());

    sim::FaultConfig cfg;
    cfg.seed = 99;
    cfg.bitFlipsPerMbit = 2000.0;
    cfg.targetMasterWeights = true;
    sim::FaultInjector inj(cfg);
    const std::size_t flipped =
        inj.corruptCoded(buf.data(), n, ecc.checkBits(),
                         ecc.numWords(), sim::FaultSite::MasterWeights);
    ASSERT_GT(flipped, 0u);
    EXPECT_EQ(static_cast<double>(flipped),
              inj.stats().get("faults.bitsFlipped"));
    // With ~8/72 of the surface in check bits, a few hundred flips
    // must hit both regions.
    EXPECT_GT(inj.stats().get("faults.checkBitsFlipped"), 0.0);
    EXPECT_NE(0, std::memcmp(buf.data(), orig.data(),
                             n * sizeof(float)));
    EXPECT_NE(0, std::memcmp(ecc.checkBits(), orig_check.data(),
                             ecc.numWords()));

    // Every flip is correctable or detectable: decode-correct and
    // require corrected + uncorrectable to cover all faulty words.
    const auto rep = ecc.correctAll(buf.data());
    EXPECT_GT(rep.corrected, 0u);
    // All single-bit words are now repaired; a second pass only sees
    // the double-bit (uncorrectable) words again.
    const auto again = ecc.correctAll(buf.data());
    EXPECT_EQ(again.corrected, 0u);
    EXPECT_EQ(again.uncorrectable, rep.uncorrectable);
}

TEST(FaultInjectorCoded, DeterministicAcrossThreadCounts)
{
    const std::size_t n = 513; // odd tail word
    auto runOnce = [n](int threads) {
        ThreadPool::instance().setNumThreads(threads);
        std::vector<float> buf = randomFloats(n, 31);
        dram::EccProtectedArray ecc(n);
        ecc.encodeAll(buf.data());
        sim::FaultConfig cfg;
        cfg.seed = 7;
        cfg.bitFlipsPerMbit = 5000.0;
        cfg.burstLength = 3; // bursts straddle word boundaries
        cfg.targetMasterWeights = true;
        sim::FaultInjector inj(cfg);
        for (int pass = 0; pass < 4; ++pass)
            inj.corruptCoded(buf.data(), n, ecc.checkBits(),
                             ecc.numWords(),
                             sim::FaultSite::MasterWeights);
        const std::size_t dataBytes = n * sizeof(float);
        std::vector<std::uint8_t> image(dataBytes + ecc.numWords());
        std::memcpy(image.data(), buf.data(), dataBytes);
        std::memcpy(image.data() + dataBytes, ecc.checkBits(),
                    ecc.numWords());
        return image;
    };
    const auto serial = runOnce(1);
    const auto parallel = runOnce(4);
    ThreadPool::instance().setNumThreads(0); // restore default
    EXPECT_EQ(serial, parallel);
}

TEST(FaultInjectorCoded, ZeroRateFlipsNothing)
{
    const std::size_t n = 64;
    std::vector<float> buf = randomFloats(n, 41);
    const std::vector<float> orig = buf;
    dram::EccProtectedArray ecc(n);
    ecc.encodeAll(buf.data());
    sim::FaultConfig cfg;
    cfg.bitFlipsPerMbit = 0.0;
    cfg.targetMasterWeights = true;
    sim::FaultInjector inj(cfg);
    EXPECT_EQ(inj.corruptCoded(buf.data(), n, ecc.checkBits(),
                               ecc.numWords(),
                               sim::FaultSite::MasterWeights),
              0u);
    EXPECT_EQ(0, std::memcmp(buf.data(), orig.data(),
                             n * sizeof(float)));
}

// ------------------------------------------------------- ABFT (FP32)

Tensor
randomTensor(std::size_t r, std::size_t c, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t({r, c});
    for (std::size_t i = 0; i < t.numel(); ++i)
        t.data()[i] = static_cast<float>(rng.gaussian());
    return t;
}

TEST(Abft, CleanGemmBitwiseIdenticalToMatmul)
{
    const Tensor a = randomTensor(17, 33, 51);
    const Tensor b = randomTensor(33, 9, 52);
    const Tensor plain = matmul(a, b);
    abft::AbftConfig cfg;
    abft::AbftReport rep;
    const Tensor checked = abft::abftMatmul(a, b, cfg, &rep);
    ASSERT_EQ(checked.shape(), plain.shape());
    EXPECT_EQ(0, std::memcmp(checked.data(), plain.data(),
                             plain.numel() * sizeof(float)));
    EXPECT_EQ(rep.suspectRows, 0u);
    EXPECT_EQ(rep.retries, 0u);
    EXPECT_FALSE(rep.corrected);
    EXPECT_FALSE(rep.escalated);
}

TEST(Abft, TransientCorruptionRepairedToBitwiseCleanProduct)
{
    const Tensor a = randomTensor(12, 40, 53);
    const Tensor b = randomTensor(40, 14, 54);
    const Tensor plain = matmul(a, b);
    StatGroup stats;
    abft::AbftConfig cfg;
    cfg.stats = &stats;
    int shots = 1; // one-shot: fault on first pass only
    cfg.corruptOutput = [&shots](Tensor &c) {
        if (shots-- > 0)
            flipFloatBit(c.data(), 5, 28); // exponent-region flip
    };
    abft::AbftReport rep;
    const Tensor checked = abft::abftMatmul(a, b, cfg, &rep);
    EXPECT_TRUE(rep.corrected);
    EXPECT_FALSE(rep.escalated);
    EXPECT_EQ(rep.retries, 1u);
    EXPECT_EQ(0, std::memcmp(checked.data(), plain.data(),
                             plain.numel() * sizeof(float)));
    EXPECT_EQ(stats.get("abft.corrected"), 1.0);
    EXPECT_EQ(stats.get("abft.escalations"), 0.0);
}

/**
 * One-shot fault that adds +delta and -delta to two elements of row
 * @p row: the row sum is unchanged, so only columns are flagged.
 */
std::function<void(Tensor &)>
cancellingRowFault(std::size_t row, int &shots)
{
    return [row, &shots](Tensor &c) {
        if (shots-- <= 0)
            return;
        const float delta = 8.0f;
        c.at2(row, 0) += delta;
        c.at2(row, c.dim(1) - 1) -= delta;
    };
}

TEST(Abft, ColumnOnlyMismatchRepairedToBitwiseCleanProduct)
{
    const Tensor a = randomTensor(11, 37, 61);
    const Tensor b = randomTensor(37, 13, 62);
    const Tensor plain = matmul(a, b);
    StatGroup stats;
    abft::AbftConfig cfg;
    cfg.stats = &stats;
    int shots = 1;
    cfg.corruptOutput = cancellingRowFault(4, shots);
    abft::AbftReport rep;
    const Tensor checked = abft::abftMatmul(a, b, cfg, &rep);
    EXPECT_EQ(rep.suspectRows, 0u);
    EXPECT_EQ(rep.suspectCols, 2u);
    EXPECT_TRUE(rep.corrected);
    EXPECT_FALSE(rep.escalated);
    EXPECT_EQ(0, std::memcmp(checked.data(), plain.data(),
                             plain.numel() * sizeof(float)));
    EXPECT_EQ(stats.get("abft.corrected"), 1.0);
}

TEST(Abft, PersistentCorruptionEscalates)
{
    const Tensor a = randomTensor(10, 16, 55);
    const Tensor b = randomTensor(16, 10, 56);
    StatGroup stats;
    abft::AbftConfig cfg;
    cfg.stats = &stats;
    cfg.corruptRetries = true; // stuck-at accumulator model
    cfg.corruptOutput = [](Tensor &c) {
        flipFloatBit(c.data(), 3, 30);
    };
    abft::AbftReport rep;
    (void)abft::abftMatmul(a, b, cfg, &rep);
    EXPECT_TRUE(rep.escalated);
    EXPECT_FALSE(rep.corrected);
    EXPECT_EQ(stats.get("abft.escalations"), 1.0);
}

TEST(Abft, ScopeReroutesMatmulAndSuspendsDuringVerify)
{
    const Tensor a = randomTensor(6, 8, 57);
    const Tensor b = randomTensor(8, 6, 58);
    StatGroup stats;
    abft::AbftConfig cfg;
    cfg.stats = &stats;
    {
        abft::AbftScope scope(cfg);
        ASSERT_EQ(abft::AbftScope::active(), &cfg);
        (void)matmul(a, b); // rerouted through abftMatmul
        (void)matmul(a, b);
    }
    EXPECT_EQ(abft::AbftScope::active(), nullptr);
    // Two GEMMs verified, no recursion blow-up, no false alarms.
    EXPECT_EQ(stats.get("abft.gemms"), 2.0);
    EXPECT_EQ(stats.get("abft.mismatches"), 0.0);
}

TEST(Abft, NoFalsePositivesOnCleanFp32Gemms)
{
    StatGroup stats;
    abft::AbftConfig cfg;
    cfg.stats = &stats;
    Rng shapes(59);
    for (int i = 0; i < 200; ++i) {
        const std::size_t m = 1 + shapes.below(24);
        const std::size_t k = 1 + shapes.below(96);
        const std::size_t n = 1 + shapes.below(24);
        const Tensor a = randomTensor(m, k, 60 + i);
        const Tensor b = randomTensor(k, n, 300 + i);
        (void)abft::abftMatmul(a, b, cfg);
    }
    EXPECT_EQ(stats.get("abft.mismatches"), 0.0);
    EXPECT_EQ(stats.get("abft.gemms"), 200.0);
}

// -------------------------------------------------- ABFT (quantized)

TEST(AbftQuantized, NoFalsePositivesAtEveryHqtWidth)
{
    // 1k clean quantized GEMMs spread over the HQT operand widths:
    // the quantized-domain checksums must absorb only FP rounding, so
    // the auto tolerance holds from 4-bit to 16-bit operands.
    StatGroup stats;
    abft::AbftConfig cfg;
    cfg.stats = &stats;
    Rng shapes(61);
    int gemms = 0;
    for (const int bits : {4, 8, 12, 16}) {
        for (int i = 0; i < 250; ++i) {
            const std::size_t m = 1 + shapes.below(12);
            const std::size_t k = 1 + shapes.below(80);
            const std::size_t n = 1 + shapes.below(12);
            arch::QuantizedGemmOptions opt;
            opt.bits = bits;
            opt.blockK = 32;
            opt.abft = &cfg;
            const Tensor a = randomTensor(m, k, 1000 + gemms);
            const Tensor b = randomTensor(k, n, 9000 + gemms);
            abft::AbftReport rep;
            (void)arch::quantizedMatmul(a, b, opt, &rep);
            ASSERT_EQ(rep.suspectRows, 0u)
                << "bits=" << bits << " gemm=" << i;
            ASSERT_EQ(rep.suspectCols, 0u)
                << "bits=" << bits << " gemm=" << i;
            ++gemms;
        }
    }
    EXPECT_EQ(stats.get("abft.gemms"), 1000.0);
    EXPECT_EQ(stats.get("abft.mismatches"), 0.0);
}

TEST(AbftQuantized, VerificationDoesNotPerturbCleanProduct)
{
    const Tensor a = randomTensor(9, 48, 71);
    const Tensor b = randomTensor(48, 7, 72);
    arch::QuantizedGemmOptions plain_opt;
    const Tensor plain = arch::quantizedMatmul(a, b, plain_opt);
    abft::AbftConfig cfg;
    arch::QuantizedGemmOptions abft_opt;
    abft_opt.abft = &cfg;
    const Tensor checked = arch::quantizedMatmul(a, b, abft_opt);
    EXPECT_EQ(0, std::memcmp(checked.data(), plain.data(),
                             plain.numel() * sizeof(float)));
}

TEST(AbftQuantized, InjectedAccumulatorFaultCorrected)
{
    const Tensor a = randomTensor(16, 64, 73);
    const Tensor b = randomTensor(64, 16, 74);
    arch::QuantizedGemmOptions clean_opt;
    const Tensor clean = arch::quantizedMatmul(a, b, clean_opt);

    sim::FaultConfig fcfg;
    fcfg.seed = 77;
    fcfg.bitFlipsPerMbit = 500.0; // ~4 flips over the 16x16 tile
    fcfg.targetAccumulators = true;
    sim::FaultInjector inj(fcfg);
    StatGroup stats;
    abft::AbftConfig cfg;
    cfg.stats = &stats;
    cfg.corruptOutput = [&inj](Tensor &c) {
        inj.maybeCorrupt(c.data(), c.numel(),
                         sim::FaultSite::Accumulators);
    };
    cfg.corruptRetries = false; // retries run clean (transient model)
    arch::QuantizedGemmOptions opt;
    opt.abft = &cfg;
    abft::AbftReport rep;
    const Tensor fixed = arch::quantizedMatmul(a, b, opt, &rep);
    ASSERT_GT(inj.stats().get("faults.bitsFlipped"), 0.0);
    EXPECT_TRUE(rep.corrected);
    EXPECT_FALSE(rep.escalated);
    EXPECT_EQ(0, std::memcmp(fixed.data(), clean.data(),
                             clean.numel() * sizeof(float)));
    EXPECT_EQ(stats.get("abft.corrected"), 1.0);
}

TEST(AbftQuantized, ColumnOnlyMismatchRepairedToBitwiseCleanProduct)
{
    const Tensor a = randomTensor(10, 48, 75);
    const Tensor b = randomTensor(48, 9, 76);
    const Tensor clean = arch::quantizedMatmul(a, b);
    StatGroup stats;
    abft::AbftConfig cfg;
    cfg.stats = &stats;
    int shots = 1;
    cfg.corruptOutput = cancellingRowFault(7, shots);
    arch::QuantizedGemmOptions opt;
    opt.abft = &cfg;
    abft::AbftReport rep;
    const Tensor fixed = arch::quantizedMatmul(a, b, opt, &rep);
    EXPECT_EQ(rep.suspectRows, 0u);
    EXPECT_EQ(rep.suspectCols, 2u);
    EXPECT_TRUE(rep.corrected);
    EXPECT_FALSE(rep.escalated);
    EXPECT_EQ(0, std::memcmp(fixed.data(), clean.data(),
                             clean.numel() * sizeof(float)));
    EXPECT_EQ(stats.get("abft.corrected"), 1.0);
}

// --------------------------------------- checkpoint diagnostics

TEST(CheckpointDiagnostics, CorruptTensorNamedInWarnLog)
{
    const std::string path =
        ::testing::TempDir() + "cq_ecc_abft_ckpt.bin";
    nn::guard::TrainerSnapshot snap;
    snap.step = 3;
    snap.optimizerStep = 3;
    Tensor t({4, 4});
    for (std::size_t i = 0; i < t.numel(); ++i)
        t.data()[i] = static_cast<float>(i);
    snap.masters = {t};
    snap.m = {t};
    snap.v = {t};
    ASSERT_EQ(nn::guard::writeCheckpointEx(path, snap),
              nn::guard::CheckpointWriteResult::Ok);

    // Flip one payload byte inside the last tensor record (group v).
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -12, SEEK_END);
    int c = std::fgetc(f);
    std::fseek(f, -12, SEEK_END);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);

    ::testing::internal::CaptureStderr();
    nn::guard::TrainerSnapshot loaded;
    const auto result = nn::guard::readCheckpoint(path, loaded);
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(result, nn::guard::CheckpointLoadResult::Corrupt);
    EXPECT_NE(log.find("v[0]"), std::string::npos) << log;
    EXPECT_NE(log.find("CRC mismatch"), std::string::npos) << log;
    EXPECT_NE(log.find("offset"), std::string::npos) << log;
    std::remove(path.c_str());
}

TEST(CheckpointDiagnostics, TruncationNamedInWarnLog)
{
    const std::string path =
        ::testing::TempDir() + "cq_ecc_abft_trunc.bin";
    nn::guard::TrainerSnapshot snap;
    snap.step = 1;
    snap.optimizerStep = 1;
    Tensor t({8});
    snap.masters = {t};
    snap.m = {t};
    snap.v = {t};
    ASSERT_EQ(nn::guard::writeCheckpointEx(path, snap),
              nn::guard::CheckpointWriteResult::Ok);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size - 10), 0);

    ::testing::internal::CaptureStderr();
    nn::guard::TrainerSnapshot loaded;
    const auto result = nn::guard::readCheckpoint(path, loaded);
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(result, nn::guard::CheckpointLoadResult::Corrupt);
    EXPECT_NE(log.find("v[0]"), std::string::npos) << log;
    EXPECT_NE(log.find("truncated"), std::string::npos) << log;
    std::remove(path.c_str());
}

// -------------------------------------------------- trainer E2E

nn::Network
makeMlp(std::uint64_t seed)
{
    Rng rng(seed);
    nn::Network net;
    net.add(std::make_unique<nn::Linear>("fc1", 2, 16, rng));
    net.add(std::make_unique<nn::Activation>("t", nn::ActKind::Tanh));
    net.add(std::make_unique<nn::Linear>("fc2", 16, 2, rng));
    return net;
}

struct TrainOutcome
{
    std::vector<float> finalParams;
    StatGroup stats;
    std::size_t rollbacks = 0;
};

TrainOutcome
trainEcc(double rate, bool ecc, int steps)
{
    nn::SpiralDataset data(2, 0.1, 5);
    nn::Network net = makeMlp(6);
    nn::QuantTrainerConfig cfg;
    cfg.algorithm = quant::AlgorithmConfig::zhang2020Hqt(64);
    cfg.optimizer.kind = nn::OptimizerKind::Adam;
    cfg.optimizer.lr = 5e-3;
    cfg.resilience.enabled = true;
    cfg.resilience.ecc.enabled = ecc;
    cfg.resilience.ecc.scrubWordsPerStep = 8;
    cfg.resilience.abft.enabled = true;
    nn::QuantTrainer trainer(net, cfg);
    sim::FaultConfig fcfg;
    fcfg.seed = 404;
    fcfg.bitFlipsPerMbit = rate;
    fcfg.burstLength = 1;
    fcfg.targetMasterWeights = true;
    sim::FaultInjector inj(fcfg);
    if (rate > 0.0)
        trainer.setFaultInjector(&inj);
    for (int i = 0; i < steps; ++i) {
        const auto b = data.sample(32);
        trainer.stepClassification(b.inputs, b.labels);
    }
    TrainOutcome out;
    for (nn::Param *p : net.params())
        out.finalParams.insert(out.finalParams.end(),
                               p->value.data(),
                               p->value.data() + p->value.numel());
    out.stats = trainer.resilienceStats();
    out.rollbacks = trainer.rollbackCount();
    return out;
}

TEST(EccTrainerE2E, SingleBitFaultedRunMatchesFaultFreeBitwise)
{
    // With ECC on and only single-bit upsets, every flip is repaired
    // before anything reads it: the faulted run must be bit-for-bit
    // the fault-free run, with zero rollbacks.
    const TrainOutcome clean = trainEcc(0.0, true, 40);
    const TrainOutcome faulted = trainEcc(150.0, true, 40);
    ASSERT_GT(faulted.stats.get("ecc.corrected"), 0.0);
    ASSERT_EQ(faulted.stats.get("ecc.uncorrectable"), 0.0)
        << "seed drew a same-word double flip; pick another seed";
    EXPECT_EQ(faulted.rollbacks, 0u);
    ASSERT_EQ(clean.finalParams.size(), faulted.finalParams.size());
    EXPECT_EQ(0, std::memcmp(clean.finalParams.data(),
                             faulted.finalParams.data(),
                             clean.finalParams.size() *
                                 sizeof(float)));
    // The same faults without ECC drift the run away.
    const TrainOutcome bare = trainEcc(150.0, false, 40);
    EXPECT_NE(0, std::memcmp(clean.finalParams.data(),
                             bare.finalParams.data(),
                             clean.finalParams.size() *
                                 sizeof(float)));
}

TEST(EccTrainerE2E, DeterministicAcrossThreadCounts)
{
    ThreadPool::instance().setNumThreads(1);
    const TrainOutcome serial = trainEcc(150.0, true, 25);
    ThreadPool::instance().setNumThreads(4);
    const TrainOutcome parallel = trainEcc(150.0, true, 25);
    ThreadPool::instance().setNumThreads(0); // restore default
    ASSERT_EQ(serial.finalParams.size(), parallel.finalParams.size());
    EXPECT_EQ(0, std::memcmp(serial.finalParams.data(),
                             parallel.finalParams.data(),
                             serial.finalParams.size() *
                                 sizeof(float)));
    EXPECT_EQ(serial.stats.get("ecc.corrected"),
              parallel.stats.get("ecc.corrected"));
}

} // namespace
} // namespace cq
