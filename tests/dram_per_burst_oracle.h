/**
 * @file
 * Test-only oracle: the DRAM controller that schedules one 64 B burst
 * per loop iteration.
 *
 * This is the per-burst model that DramController's row-segment
 * scheduler replaced, kept verbatim (only the class name differs) so
 * tests can require the production model to match it tick for tick,
 * counter for counter and bit for bit in dynamic energy, which it
 * still sums one command at a time.
 */

#ifndef CQ_TESTS_DRAM_PER_BURST_ORACLE_H
#define CQ_TESTS_DRAM_PER_BURST_ORACLE_H

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/dram_config.h"
#include "dram/dram_controller.h"

namespace cq::dram::oracle {

/** Per-burst controller with DramController's public interface. */
class PerBurstDram
{
  public:
    explicit PerBurstDram(DramConfig config);

    const DramConfig &config() const { return config_; }
    Tick transfer(Tick earliest, Addr addr, Bytes bytes, bool is_write);
    Tick ndpUpdate(Tick earliest, Addr addr, std::size_t num_elements,
                   Bytes element_bytes);
    Tick busFreeAt() const { return busFreeAt_; }
    Bytes busBytes() const { return busBytes_; }
    StatGroup stats() const;
    PicoJoule dynamicEnergy() const { return dynamicEnergy_; }
    PicoJoule standbyEnergy(Tick total_ticks) const;
    void reset();

  private:
    void checkRange(Addr addr, Bytes bytes) const;
    void mapAddress(Addr addr, std::size_t &bank,
                    std::uint64_t &row) const;
    void applyRefreshUpTo(Tick now);
    Tick prepareRow(Tick earliest, std::size_t bank, std::uint64_t row);
    Tick burstDuration();

    DramConfig config_;
    std::vector<BankState> banks_;
    Tick busFreeAt_ = 0;
    Bytes busBytes_ = 0;
    unsigned burstPhase_ = 0;
    PicoJoule dynamicEnergy_ = 0.0;

    std::uint64_t nActivates_ = 0;
    std::uint64_t nPrecharges_ = 0;
    std::uint64_t nReads_ = 0;
    std::uint64_t nWrites_ = 0;
    std::uint64_t nRowHits_ = 0;
    std::uint64_t nRowMisses_ = 0;
    std::uint64_t nNdpElements_ = 0;
    std::uint64_t nNdpRowGroups_ = 0;
    std::uint64_t nRefreshes_ = 0;

    Tick nextRefresh_ = 0;
};

inline PerBurstDram::PerBurstDram(DramConfig config)
    : config_(config), banks_(config.numBanks * config.channels)
{
    CQ_ASSERT(config_.rowBytes % config_.burstBytes == 0);
    nextRefresh_ = config_.tREFI;
}

inline void
PerBurstDram::applyRefreshUpTo(Tick now)
{
    if (!config_.refreshEnabled)
        return;
    while (nextRefresh_ <= now) {
        // All-bank refresh: rows close, banks stall for tRFC.
        for (auto &b : banks_) {
            b.rowOpen = false;
            b.readyAt = std::max(b.readyAt, nextRefresh_) +
                        config_.tRFC;
        }
        dynamicEnergy_ +=
            config_.eRefresh * static_cast<double>(config_.channels);
        ++nRefreshes_;
        nextRefresh_ += config_.tREFI;
    }
}

inline void
PerBurstDram::checkRange(Addr addr, Bytes bytes) const
{
    const Bytes capacity =
        config_.capacityBytes * static_cast<Bytes>(config_.channels);
    CQ_ASSERT_MSG(addr < capacity && bytes <= capacity - addr,
                  "address range [0x%llx, +%llu) exceeds DRAM capacity "
                  "%llu B (%u channel(s) x %llu B)",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(capacity),
                  config_.channels,
                  static_cast<unsigned long long>(config_.capacityBytes));
}

inline void
PerBurstDram::mapAddress(Addr addr, std::size_t &bank,
                           std::uint64_t &row) const
{
    // Channel interleave at burst granularity (for scaled configs),
    // then Row : Bank : Column within the channel. Bank bits above the
    // column bits keep sequential streams inside one open row.
    const Bytes chan_stride = config_.burstBytes;
    const std::size_t chan =
        (addr / chan_stride) % config_.channels;
    const Addr in_chan = addr / (chan_stride * config_.channels) *
                             chan_stride +
                         addr % chan_stride;
    const std::uint64_t row_global = in_chan / config_.rowBytes;
    const std::size_t bank_in_chan = row_global % config_.numBanks;
    row = row_global / config_.numBanks;
    bank = chan * config_.numBanks + bank_in_chan;
}

inline Tick
PerBurstDram::prepareRow(Tick earliest, std::size_t bank,
                           std::uint64_t row)
{
    BankState &b = banks_[bank];
    Tick t = std::max(earliest, b.readyAt);
    if (b.rowOpen && b.openRow == row) {
        ++nRowHits_;
        return t;
    }
    // Row miss: PRECHARGE (if open) then ACTIVATE.
    if (b.rowOpen) {
        // Enforce tRAS since the last ACTIVATE before precharging.
        t = std::max(t, b.lastActivate + config_.tRAS);
        t += config_.tRP;
        ++nPrecharges_;
    }
    ++nRowMisses_;
    ++nActivates_;
    dynamicEnergy_ += config_.eActPre;
    b.lastActivate = t;
    t += config_.tRCD;
    b.rowOpen = true;
    b.openRow = row;
    return t;
}

inline Tick
PerBurstDram::burstDuration()
{
    Tick d = config_.tBurst;
    if (config_.fractionalBurst) {
        // 4/4/4/3 pattern: average 3.75 ticks -> 17.06 GB/s on 64 B.
        if (burstPhase_ == 3)
            d -= 1;
        burstPhase_ = (burstPhase_ + 1) % 4;
    }
    return d;
}

inline Tick
PerBurstDram::transfer(Tick earliest, Addr addr, Bytes bytes,
                         bool is_write)
{
    CQ_ASSERT_MSG(bytes > 0, "zero-byte %s at addr 0x%llx",
                  is_write ? "write" : "read",
                  static_cast<unsigned long long>(addr));
    checkRange(addr, bytes);
    applyRefreshUpTo(earliest);
    Tick done = earliest;
    Addr cur = addr;
    Bytes remaining = bytes;
    while (remaining > 0) {
        if (config_.refreshEnabled && done >= nextRefresh_)
            applyRefreshUpTo(done);
        const Bytes in_burst =
            std::min<Bytes>(remaining,
                            config_.burstBytes -
                                cur % config_.burstBytes);
        std::size_t bank;
        std::uint64_t row;
        mapAddress(cur, bank, row);
        const Tick col_ready = prepareRow(earliest, bank, row);
        // The burst needs the bank ready and the data bus free. With
        // multiple channels each channel has its own bus; we model the
        // aggregate as `channels` bursts being able to overlap by
        // crediting the shared-bus time 1/channels per burst.
        Tick start = std::max(col_ready, busFreeAt_);
        const Tick dur = burstDuration();
        const Tick bus_dur =
            std::max<Tick>(1, dur / config_.channels);
        busFreeAt_ = start + bus_dur;
        const Tick finish = start + config_.tCAS + dur;
        banks_[bank].readyAt = start + dur;
        done = std::max(done, finish);

        busBytes_ += in_burst;
        if (is_write) {
            ++nWrites_;
            dynamicEnergy_ += config_.eWriteBurst;
        } else {
            ++nReads_;
            dynamicEnergy_ += config_.eReadBurst;
        }

        cur += in_burst;
        remaining -= in_burst;
    }
    return done;
}

inline Tick
PerBurstDram::ndpUpdate(Tick earliest, Addr addr,
                          std::size_t num_elements, Bytes element_bytes)
{
    CQ_ASSERT_MSG(num_elements > 0, "zero-element NDP update at 0x%llx",
                  static_cast<unsigned long long>(addr));
    CQ_ASSERT_MSG(element_bytes > 0 && element_bytes <= config_.rowBytes,
                  "NDP element size %llu outside (0, rowBytes=%llu]",
                  static_cast<unsigned long long>(element_bytes),
                  static_cast<unsigned long long>(config_.rowBytes));
    checkRange(addr, static_cast<Bytes>(num_elements) * element_bytes);
    applyRefreshUpTo(earliest);
    const std::size_t per_row =
        static_cast<std::size_t>(config_.rowBytes / element_bytes);
    Tick t = earliest;
    std::size_t remaining = num_elements;
    Addr cur = addr;

    while (remaining > 0) {
        if (config_.refreshEnabled && t >= nextRefresh_)
            applyRefreshUpTo(t);
        const std::size_t in_row = std::min(remaining, per_row);

        // Three successive ACTIVATEs open the rows holding w, m and v
        // (they live in distinct banks; the command bus serializes the
        // row commands).
        std::size_t bank;
        std::uint64_t row;
        mapAddress(cur, bank, row);
        Tick row_ready = 0;
        for (int r = 0; r < 3; ++r) {
            const std::size_t b = (bank + r) % banks_.size();
            // The m/v rows track the weight row index within their
            // banks; modeling them as the same row id in neighbour
            // banks preserves the timing behaviour.
            BankState &bs = banks_[b];
            Tick bt = std::max(t + static_cast<Tick>(r) * config_.tCmd,
                               bs.readyAt);
            if (bs.rowOpen) {
                bt = std::max(bt, bs.lastActivate + config_.tRAS);
                bt += config_.tRP;
                ++nPrecharges_;
            }
            ++nActivates_;
            dynamicEnergy_ += config_.eActPre;
            bs.rowOpen = true;
            bs.openRow = row;
            bs.lastActivate = bt;
            bs.readyAt = bt + config_.tRCD;
            row_ready = std::max(row_ready, bt + config_.tRCD);
        }

        // Gradient WRITE bursts cross the bus; w/m/v do not. The NDPO
        // pipeline updates one element per tick once filled, which is
        // never the bottleneck against the bus bursts.
        const Bytes grad_bytes =
            static_cast<Bytes>(in_row) * element_bytes;
        Tick data_done = row_ready;
        Bytes sent = 0;
        while (sent < grad_bytes) {
            const Bytes chunk =
                std::min<Bytes>(config_.burstBytes, grad_bytes - sent);
            Tick start = std::max(row_ready, busFreeAt_);
            const Tick dur = burstDuration();
            busFreeAt_ =
                start + std::max<Tick>(1, dur / config_.channels);
            data_done = start + config_.tCAS + dur;
            sent += chunk;
            ++nWrites_;
            busBytes_ += chunk;
            dynamicEnergy_ += config_.eWriteBurst;
        }

        // NDPO datapath energy + the trailing pipeline drain.
        dynamicEnergy_ +=
            config_.eNdpPerElement * static_cast<double>(in_row);
        nNdpElements_ += in_row;
        data_done += 4; // pipeline drain

        // Three PRECHARGEs write the updated rows back.
        for (int r = 0; r < 3; ++r) {
            const std::size_t b = (bank + r) % banks_.size();
            BankState &bs = banks_[b];
            const Tick pt =
                std::max({data_done + static_cast<Tick>(r) * config_.tCmd,
                          bs.lastActivate + config_.tRAS,
                          bs.readyAt});
            bs.rowOpen = false;
            bs.readyAt = pt + config_.tRP;
            ++nPrecharges_;
        }
        ++nNdpRowGroups_;

        t = data_done;
        cur += static_cast<Addr>(in_row) * element_bytes;
        remaining -= in_row;
    }
    return t;
}

inline PicoJoule
PerBurstDram::standbyEnergy(Tick total_ticks) const
{
    // mW * ns = pJ.
    return config_.standbyPowerMw * static_cast<double>(total_ticks) *
           static_cast<double>(config_.channels);
}

inline StatGroup
PerBurstDram::stats() const
{
    StatGroup out;
    out.counter("dram.activates") = static_cast<double>(nActivates_);
    out.counter("dram.precharges") = static_cast<double>(nPrecharges_);
    out.counter("dram.reads") = static_cast<double>(nReads_);
    out.counter("dram.writes") = static_cast<double>(nWrites_);
    out.counter("dram.rowHits") = static_cast<double>(nRowHits_);
    out.counter("dram.rowMisses") = static_cast<double>(nRowMisses_);
    out.counter("dram.busBytes") = static_cast<double>(busBytes_);
    out.counter("dram.ndpElements") =
        static_cast<double>(nNdpElements_);
    out.counter("dram.ndpRowGroups") =
        static_cast<double>(nNdpRowGroups_);
    out.counter("dram.refreshes") = static_cast<double>(nRefreshes_);
    return out;
}

inline void
PerBurstDram::reset()
{
    banks_.assign(banks_.size(), BankState{});
    busFreeAt_ = 0;
    busBytes_ = 0;
    burstPhase_ = 0;
    dynamicEnergy_ = 0.0;
    nActivates_ = nPrecharges_ = nReads_ = nWrites_ = 0;
    nRowHits_ = nRowMisses_ = nNdpElements_ = nNdpRowGroups_ = 0;
    nRefreshes_ = 0;
    nextRefresh_ = config_.tREFI;
}

} // namespace cq::dram::oracle

#endif // CQ_TESTS_DRAM_PER_BURST_ORACLE_H
