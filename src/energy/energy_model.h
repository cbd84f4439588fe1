/**
 * @file
 * Energy and area models.
 *
 * Sources: Table I of the paper (45 nm per-operation energies, after
 * Horowitz ISSCC'14, plus the paper's own 16-bit fixed-point entries),
 * and Table VII (post-layout area/power of every Cambricon-Q module at
 * 45 nm). The RTL synthesis flow of the original work is replaced by
 * these calibrated constants; the simulator multiplies them with the
 * activity counts it observes.
 */

#ifndef CQ_ENERGY_ENERGY_MODEL_H
#define CQ_ENERGY_ENERGY_MODEL_H

#include <cstddef>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace cq::energy {

/** Per-operation energies in pJ at 45 nm (paper Table I). */
namespace op {

inline constexpr PicoJoule kFp32Add = 0.9;
inline constexpr PicoJoule kFp32Mul = 3.7;
inline constexpr PicoJoule kInt32Add = 0.1;
inline constexpr PicoJoule kInt32Mul = 3.1;
inline constexpr PicoJoule kFp16Add = 0.4;
inline constexpr PicoJoule kFp16Mul = 1.1;
inline constexpr PicoJoule kInt16Add = 0.05;
inline constexpr PicoJoule kInt16Mul = 1.55;
inline constexpr PicoJoule kInt8Add = 0.03;
inline constexpr PicoJoule kInt8Mul = 0.2;
/** Quadratic multiplier scaling below 8 bit. */
inline constexpr PicoJoule kInt4Mul = 0.05;
inline constexpr PicoJoule kInt4Add = 0.015;

/** Average DRAM access energy per bit-width access (mid of the
 *  paper's ranges), pJ. */
PicoJoule dramAccess(int bits);

/**
 * Fixed-point add/mul energy for a 4/8/16/32-bit operand; 12 bits
 * (and, for adds, the 24-bit accumulator of a 12-bit MAC) sit midway
 * between the neighbouring widths.
 */
PicoJoule intAdd(int bits);
PicoJoule intMul(int bits);

} // namespace op

/** Area (mm^2) and power (mW) of one hardware module. */
struct ModuleSpec
{
    std::string name;
    double areaMm2 = 0.0;
    double powerMw = 0.0;
};

/**
 * Paper Table VII: the physical characteristics of the acceleration
 * core and NDP engine at 45 nm.
 */
struct HwCharacteristics
{
    std::vector<ModuleSpec> coreModules;
    std::vector<ModuleSpec> ndpModules;

    double coreAreaMm2() const;
    double corePowerMw() const;
    double ndpAreaMm2() const;
    double ndpPowerMw() const;

    /** The published Cambricon-Q numbers. */
    static HwCharacteristics cambriconQ();
};

/**
 * SRAM access energy per byte (pJ/B) for a buffer of the given
 * capacity -- 45 nm CACTI-class estimates interpolated on log
 * capacity. Larger arrays pay longer bitlines/wordlines.
 */
PicoJoule sramAccessPjPerByte(std::size_t capacity_bytes);

/**
 * Breakdown of a simulated run's energy into the paper's Fig. 12(d)
 * categories.
 */
struct EnergyBreakdown
{
    PicoJoule accPj = 0.0;    ///< functional modules in the core
    PicoJoule bufPj = 0.0;    ///< on-chip SRAM buffers
    PicoJoule ddrDynamicPj = 0.0;
    PicoJoule ddrStandbyPj = 0.0;
    /** Chip static power integrated over the runtime (ACC bucket in
     *  the Fig. 12(d) grouping). */
    PicoJoule chipStaticPj = 0.0;

    PicoJoule
    totalPj() const
    {
        return accPj + bufPj + ddrDynamicPj + ddrStandbyPj +
               chipStaticPj;
    }
};

/**
 * Build the breakdown from simulator activity counters. Expected
 * counters (all optional): pe.macs.int4 / int8 / int16, sfu.ops,
 * squ.elements, squ.ways, buf.<name>.readBytes / writeBytes with
 * buf.<name>.capacity, ndpo.elements, plus the DRAM controller's
 * dynamicEnergy/standby provided separately.
 */
EnergyBreakdown buildBreakdown(const StatGroup &activity,
                               PicoJoule dram_dynamic_pj,
                               PicoJoule dram_standby_pj);

} // namespace cq::energy

#endif // CQ_ENERGY_ENERGY_MODEL_H
