/**
 * @file
 * Implementation of the code generator.
 */

#include "compiler/codegen.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "common/logging.h"

namespace cq::compiler {

using arch::BufId;
using arch::Instr;
using arch::Opcode;
using arch::Phase;
using arch::Program;

namespace {

/** Address-space regions (top nibble selects the region). */
enum class Region : Addr
{
    Weights = 0x0,
    StateM = 0x1,
    StateV = 0x2,
    QuantWeights = 0x3,
    Activations = 0x4,
    Gradients = 0x8,
    WeightGrads = 0xC,
};

class Codegen
{
  public:
    Codegen(const WorkloadIR &ir, const arch::CambriconQConfig &config,
            const CodegenOptions &options)
        : ir_(ir), cfg_(config), opt_(options)
    {
        for (int r = 0; r < 16; ++r)
            regionNext_[r] = static_cast<Addr>(r) << 32;
    }

    Program
    run()
    {
        const bool ndp = useNdp();
        if (ndp) {
            // Program the NDPO constant registers once.
            Instr cro;
            cro.op = Opcode::CROSET;
            cro.phase = Phase::WU;
            crosetIdx_ = emit(std::move(cro), {});
        }
        for (task_ = 0; task_ < ir_.tasks.size(); ++task_) {
            const Task &task = ir_.tasks[task_];
            switch (task.kind) {
              case Task::Kind::Gemm:
                gemm(task.gemm);
                break;
              case Task::Kind::Stream:
                stream(task.stream);
                break;
              case Task::Kind::Update:
                if (!ndp)
                    update(task.update);
                break;
              case Task::Kind::Alias:
                aliasTensor(task.alias);
                break;
            }
        }
        return std::move(prog_);
    }

  private:
    bool
    useNdp() const
    {
        return opt_.target == CodegenOptions::Target::CambriconQ &&
               cfg_.ndpEnabled;
    }

    bool
    isTpu() const
    {
        return opt_.target == CodegenOptions::Target::Tpu;
    }

    /** Number of optimizer state tensors moved by a non-NDP update. */
    unsigned
    stateTensors() const
    {
        switch (opt_.optimizer) {
          case nn::OptimizerKind::SGD:     return 0;
          case nn::OptimizerKind::AdaGrad:
          case nn::OptimizerKind::RMSProp: return 1;
          case nn::OptimizerKind::Adam:    return 2;
        }
        return 1;
    }

    std::uint32_t
    emit(Instr ins, std::vector<std::uint32_t> deps)
    {
        // Deduplicate and order the dependence list.
        std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
        ins.deps = std::move(deps);
        ins.task = task_;
        prog_.push_back(std::move(ins));
        return static_cast<std::uint32_t>(prog_.size() - 1);
    }

    /** Allocate (or look up) the base address of a tensor. */
    Addr
    tensorAddr(const std::string &name, Bytes bytes, Region region)
    {
        auto it = addrs_.find(name);
        if (it != addrs_.end())
            return it->second;
        const auto r = static_cast<std::size_t>(region);
        Addr base = regionNext_[r];
        // Align to DRAM bursts.
        regionNext_[r] = base + ((bytes + 63) / 64) * 64;
        addrs_.emplace(name, base);
        return base;
    }

    /**
     * Writers a reader of @p tensor must wait for. Stores to one
     * tensor are all issued on the same unit (DMA-store or NDP) and
     * complete in issue order, so waiting for the *latest* writer is
     * timing-equivalent to waiting for all of them -- this keeps the
     * dependence graph linear in the instruction count.
     */
    std::vector<std::uint32_t>
    readersDeps(const std::string &tensor) const
    {
        auto it = lastWriter_.find(tensor);
        if (it == lastWriter_.end())
            return {};
        return {it->second};
    }

    void
    noteWrite(const std::string &tensor, std::uint32_t idx)
    {
        auto [it, inserted] = lastWriter_.emplace(tensor, idx);
        if (!inserted)
            it->second = std::max(it->second, idx);
    }

    void
    aliasTensor(const AliasTask &task)
    {
        std::uint32_t latest = 0;
        bool any = false;
        for (const auto &in : task.inTensors) {
            auto it = lastWriter_.find(in);
            if (it != lastWriter_.end()) {
                latest = std::max(latest, it->second);
                any = true;
            }
        }
        if (any)
            noteWrite(task.outTensor, latest);
    }

    /**
     * Ensure a quantized copy of layer weights exists this minibatch;
     * returns the instruction to depend on (or ~0u when loads may use
     * readersDeps of the wq tensor).
     */
    void
    quantizeWeights(const std::string &layer, std::uint64_t elems,
                    unsigned ways)
    {
        const std::string wq = "wq:" + layer;
        if (quantizedWeights_.count(layer))
            return;
        quantizedWeights_.insert(layer);

        const Bytes fp32_bytes = elems * 4;
        const Bytes q_bytes = elems * opt_.bits / 8;
        const Addr src =
            tensorAddr("w:" + layer, fp32_bytes, Region::Weights);
        const Addr dst =
            tensorAddr(wq, q_bytes, Region::QuantWeights);

        if (!isTpu()) {
            // Fused one-pass statistic + quantization through the SQU.
            Instr mv;
            mv.op = Opcode::QMOVE;
            mv.phase = Phase::Quant;
            mv.addr = src;
            mv.bytes = fp32_bytes;
            mv.addr2 = dst;
            mv.bytes2 = q_bytes;
            mv.elems = elems;
            mv.ways = static_cast<std::uint8_t>(ways);
            noteWrite(wq, emit(std::move(mv), {}));
            return;
        }

        // TPU (Fig. 4(c)): a statistic pass over the data, then a
        // separate quantization pass (read again, write quantized) --
        // the "two-pass data access" of Sec. II-B.
        Instr st;
        st.op = Opcode::VLOAD;
        st.phase = Phase::Stat;
        st.addr = src;
        st.bytes = fp32_bytes;
        const auto stat_idx = emit(std::move(st), {});

        Instr ql;
        ql.op = Opcode::VLOAD;
        ql.phase = Phase::Quant;
        ql.addr = src;
        ql.bytes = fp32_bytes;
        const auto qread_idx = emit(std::move(ql), {stat_idx});

        Instr qs;
        qs.op = Opcode::VSTORE;
        qs.phase = Phase::Quant;
        qs.addr = dst;
        qs.bytes = q_bytes;
        noteWrite(wq, emit(std::move(qs), {qread_idx}));
    }

    /**
     * Emit the quantized store of a full-precision on-chip result.
     * On Cambricon-Q this is one QSTORE through the SQU; on the TPU
     * it is an FP32 store plus the statistic and quantization passes.
     * Returns the final writer instruction index.
     */
    std::uint32_t
    quantizedStore(const std::string &tensor, Addr addr,
                   std::uint64_t elems, Phase phase, unsigned ways,
                   std::vector<std::uint32_t> deps)
    {
        const Bytes q_bytes =
            std::max<Bytes>(1, elems * opt_.bits / 8);
        if (!isTpu()) {
            Instr qs;
            qs.op = Opcode::QSTORE;
            qs.phase = phase;
            qs.addr = addr;
            qs.bytes = q_bytes;
            qs.elems = elems;
            qs.ways = static_cast<std::uint8_t>(ways);
            qs.buf = BufId::NBout;
            const auto idx = emit(std::move(qs), std::move(deps));
            noteWrite(tensor, idx);
            return idx;
        }

        // TPU running HQT (the paper's fair-comparison setup): the
        // tile is still in NBout, so the statistic and quantization
        // passes run as *compute* kernels on the vector units -- one
        // pass over the tile for the statistic, `ways` passes for the
        // E2BQM candidates -- serializing with the array's GEMMs
        // (this is the S/Q time visible in the paper's Fig. 12(b)),
        // before the quantized result is finally stored.
        Instr st;
        st.op = Opcode::HMUL; // max-reduction pass
        st.phase = Phase::Stat;
        st.elems = elems;
        const auto stat_idx = emit(std::move(st), std::move(deps));

        Instr qk;
        qk.op = Opcode::VMUL; // candidate quantization passes
        qk.phase = Phase::Quant;
        qk.elems = elems * ways;
        const auto quant_idx = emit(std::move(qk), {stat_idx});

        Instr qw;
        qw.op = Opcode::VSTORE;
        qw.phase = phase;
        qw.addr = addr;
        qw.bytes = q_bytes;
        qw.buf = BufId::NBout;
        const auto idx = emit(std::move(qw), {quant_idx});
        noteWrite(tensor, idx);
        return idx;
    }

    void gemm(const GemmTask &task);
    void stream(const StreamTask &task);
    void update(const UpdateTask &task);

    const WorkloadIR &ir_;
    const arch::CambriconQConfig &cfg_;
    const CodegenOptions &opt_;
    Program prog_;
    std::map<std::string, Addr> addrs_;
    std::array<Addr, 16> regionNext_{};
    std::map<std::string, std::uint32_t> lastWriter_;
    std::set<std::string> quantizedWeights_;
    std::uint32_t crosetIdx_ = 0;
    /** Index of the IR task being lowered (Instr::task). */
    std::uint32_t task_ = arch::kNoTask;
};

void
Codegen::gemm(const GemmTask &task)
{
    const int bits = opt_.bits;
    const int bits_a = task.aIsFp32 ? 32 : bits;
    const auto to_bytes = [](std::uint64_t elems, int width) {
        return static_cast<Bytes>((elems * width + 7) / 8);
    };
    const auto ceil_div = [](std::uint64_t a, std::uint64_t b) {
        return (a + b - 1) / b;
    };
    const bool b_is_weights = task.freshWeightElems > 0 ||
                              task.bTensor.rfind("wq:", 0) == 0;

    if (task.freshWeightElems > 0)
        quantizeWeights(task.layer, task.freshWeightElems, 1);

    // ---- Double-buffered on-chip capacities ----
    const Bytes half_nbin = cfg_.nbinBytes / 2;
    const Bytes half_sb = cfg_.sbBytes / 2;
    const Bytes half_nbout = cfg_.nboutBytes / 2;

    // ---- Operand stream sizes in bytes ----
    const Bytes a_bytes = to_bytes(task.aElems(), bits_a);
    const Bytes b_bytes = to_bytes(task.bElems(), bits);
    const Bytes c_bytes =
        task.outFp32 ? task.cElems() * 4 : to_bytes(task.cElems(), bits);

    // ---- Tiling search ----
    // Three loop orders differ in which operand is re-streamed:
    //  NMK: C tile per (m,n); A re-read per n-tile, B per m-tile.
    //  NKM: C resident for all m rows of one n-tile; B read once.
    //  MKN: C resident for all n cols of one m-tile; A read once.
    // The compiler picks the (kT, order) pair minimizing DRAM traffic,
    // which is what a real tiling pass optimizes for on a
    // bandwidth-bound accelerator.
    enum class Order { NMK, NKM, MKN };
    struct Plan
    {
        std::uint64_t kT = 1, mT = 1, nT = 1;
        Order order = Order::NMK;
        double traffic = 1e300;
    };
    Plan best;
    const auto consider = [&best](Plan p) {
        if (p.traffic < best.traffic)
            best = p;
    };
    const double a_d = static_cast<double>(a_bytes);
    const double b_d = static_cast<double>(b_bytes);
    const double c_d = static_cast<double>(c_bytes);

    const std::uint64_t kt_cands[] = {task.k, 8192, 4096, 2048,
                                      1024,   512,  256};
    for (std::uint64_t kt_raw : kt_cands) {
        const std::uint64_t kt = std::min(kt_raw, task.k);
        if (kt == 0)
            continue;
        const std::uint64_t m_cap = std::min<std::uint64_t>(
            {task.m, half_nbin * 8 / (kt * bits_a), 512});
        const std::uint64_t n_cap = std::min<std::uint64_t>(
            task.n, half_sb * 8 / (kt * bits));
        if (m_cap == 0 || n_cap == 0)
            continue;

        // NMK
        {
            const std::uint64_t mt = m_cap;
            const std::uint64_t nt =
                std::min(n_cap, half_nbout / (4 * mt));
            if (nt > 0) {
                consider({kt, mt, nt, Order::NMK,
                          a_d * static_cast<double>(
                                    ceil_div(task.n, nt)) +
                              b_d * static_cast<double>(
                                        ceil_div(task.m, mt)) +
                              c_d});
            }
        }
        // NKM: whole-m C column resident in NBout.
        {
            const std::uint64_t nt =
                std::min(n_cap, half_nbout / (4 * task.m));
            if (nt > 0) {
                consider({kt, m_cap, nt, Order::NKM,
                          a_d * static_cast<double>(
                                    ceil_div(task.n, nt)) +
                              b_d + c_d});
            }
        }
        // MKN: whole-n C row resident in NBout.
        {
            const std::uint64_t mt =
                std::min(m_cap, half_nbout / (4 * task.n));
            if (mt > 0) {
                consider({kt, mt, n_cap, Order::MKN,
                          a_d +
                              b_d * static_cast<double>(
                                        ceil_div(task.m, mt)) +
                              c_d});
            }
        }
    }
    CQ_ASSERT_MSG(best.traffic < 1e300,
                  "no feasible tiling for GEMM %s (m=%llu n=%llu "
                  "k=%llu)",
                  task.layer.c_str(),
                  static_cast<unsigned long long>(task.m),
                  static_cast<unsigned long long>(task.n),
                  static_cast<unsigned long long>(task.k));

    const std::uint64_t m_t = best.mT, n_t = best.nT, k_t = best.kT;
    const std::uint64_t m_tiles = ceil_div(task.m, m_t);
    const std::uint64_t n_tiles = ceil_div(task.n, n_t);
    const std::uint64_t k_tiles = ceil_div(task.k, k_t);

    // ---- Addresses ----
    const std::string a_name = task.aTensor;
    const std::string b_name =
        task.freshWeightElems > 0 ? "wq:" + task.layer : task.bTensor;
    const Addr a_base = tensorAddr(
        a_name, std::max<Bytes>(a_bytes, 64), Region::Activations);
    const Addr b_base = tensorAddr(
        b_name, std::max<Bytes>(b_bytes, 64),
        b_is_weights ? Region::QuantWeights : Region::Gradients);
    const Region c_region = task.isWeightGradient
                                ? Region::WeightGrads
                                : (task.phase == Phase::FW
                                       ? Region::Activations
                                       : Region::Gradients);
    const Addr c_base = tensorAddr(
        task.cTensor, std::max<Bytes>(c_bytes, 64), c_region);

    // Per-tile traffic: spread the operand stream totals evenly.
    const Bytes a_tile_bytes =
        std::max<Bytes>(64, a_bytes / (m_tiles * k_tiles));
    const Bytes b_tile_bytes =
        std::max<Bytes>(64, b_bytes / (n_tiles * k_tiles));
    const Bytes c_tile_bytes =
        std::max<Bytes>(64, c_bytes / (m_tiles * n_tiles));
    const std::uint64_t c_tile_elems = std::max<std::uint64_t>(
        1, task.cElems() / (m_tiles * n_tiles));

    const auto a_deps = readersDeps(a_name);
    const auto b_deps = readersDeps(b_name);

    // ---- Emission helpers ----
    const auto emit_load_a = [&](std::uint64_t mt, std::uint64_t kt) {
        Instr la;
        la.op = task.aIsFp32 ? Opcode::QLOAD : Opcode::VLOAD;
        la.phase = task.phase;
        la.addr = a_base + ((mt * k_tiles + kt) * a_tile_bytes) %
                               std::max<Bytes>(a_bytes, 64);
        la.bytes = a_tile_bytes;
        la.elems = task.aIsFp32 ? a_tile_bytes / 4 : 0;
        la.ways = static_cast<std::uint8_t>(task.waysA);
        la.buf = BufId::NBin;
        return emit(std::move(la), a_deps);
    };
    const auto emit_load_b = [&](std::uint64_t nt, std::uint64_t kt) {
        Instr lb;
        lb.phase = task.phase;
        lb.addr = b_base + ((nt * k_tiles + kt) * b_tile_bytes) %
                               std::max<Bytes>(b_bytes, 64);
        lb.bytes = b_tile_bytes;
        lb.buf = BufId::SB;
        if (n_tiles > 1) {
            // A (k_t x n_t) sub-tile of the row-major (k x n) tensor
            // is strided: one stripe of n_t elements per k row. The
            // stripe count is capped to model DMA descriptor
            // coalescing over adjacent rows.
            const std::uint64_t k_cur =
                std::min<std::uint64_t>(k_t, task.k - kt * k_t);
            lb.op = Opcode::SLOAD;
            lb.elems = std::min<std::uint64_t>(k_cur, 128);
            lb.bytes2 = std::max<Bytes>(
                to_bytes(task.n, bits), lb.bytes / lb.elems);
        } else {
            lb.op = Opcode::VLOAD;
        }
        return emit(std::move(lb), b_deps);
    };
    const auto emit_mm = [&](std::uint64_t mt, std::uint64_t nt,
                             std::uint64_t kt, std::uint32_t dep_a,
                             std::uint32_t dep_b) {
        const std::uint64_t m_cur =
            std::min<std::uint64_t>(m_t, task.m - mt * m_t);
        const std::uint64_t n_cur =
            std::min<std::uint64_t>(n_t, task.n - nt * n_t);
        const std::uint64_t k_cur =
            std::min<std::uint64_t>(k_t, task.k - kt * k_t);
        Instr mm;
        mm.op = task.phase == Phase::FW && task.aElemsTotal > 0
                    ? Opcode::CONV
                    : Opcode::MM;
        mm.phase = task.phase;
        mm.m = static_cast<std::uint32_t>(m_cur);
        mm.n = static_cast<std::uint32_t>(n_cur);
        mm.k = static_cast<std::uint32_t>(k_cur);
        mm.bitsA = static_cast<std::uint8_t>(bits);
        mm.bitsB = static_cast<std::uint8_t>(bits);
        return emit(std::move(mm), {dep_a, dep_b});
    };
    Addr c_cursor = c_base;
    const auto emit_store = [&](std::uint64_t mt, std::uint64_t nt,
                                std::uint32_t mm_dep) {
        const std::uint64_t m_cur =
            std::min<std::uint64_t>(m_t, task.m - mt * m_t);
        const std::uint64_t n_cur =
            std::min<std::uint64_t>(n_t, task.n - nt * n_t);
        std::uint32_t store_dep = mm_dep;
        if (task.fusedActivation) {
            Instr act;
            act.op = Opcode::SFU;
            act.phase = task.phase;
            act.elems = m_cur * n_cur;
            store_dep = emit(std::move(act), {mm_dep});
        }
        if (task.outFp32) {
            if (task.isWeightGradient && useNdp()) {
                // WGSTORE: gradients stream to the NDP engine, which
                // updates w/m/v in place.
                Instr wgs;
                wgs.op = Opcode::WGSTORE;
                wgs.phase = Phase::WU;
                wgs.addr = tensorAddr("w:" + task.layer,
                                      task.cElems() * 4,
                                      Region::Weights) +
                           (c_cursor - c_base);
                wgs.bytes = c_tile_elems * 4;
                wgs.elems = c_tile_elems;
                noteWrite(task.cTensor,
                          emit(std::move(wgs),
                               {store_dep, crosetIdx_}));
            } else {
                Instr vs;
                vs.op = Opcode::VSTORE;
                vs.phase = task.phase;
                vs.addr = c_cursor;
                vs.bytes = c_tile_elems * 4;
                vs.buf = BufId::NBout;
                noteWrite(task.cTensor,
                          emit(std::move(vs), {store_dep}));
            }
        } else {
            quantizedStore(task.cTensor, c_cursor, c_tile_elems,
                           task.phase, task.waysOut, {store_dep});
        }
        c_cursor += c_tile_bytes;
    };

    // ---- Loop nests ----
    switch (best.order) {
      case Order::NMK:
        for (std::uint64_t nt = 0; nt < n_tiles; ++nt) {
            for (std::uint64_t mt = 0; mt < m_tiles; ++mt) {
                std::uint32_t last_mm = 0;
                for (std::uint64_t kt = 0; kt < k_tiles; ++kt) {
                    const auto a_idx = emit_load_a(mt, kt);
                    const auto b_idx = emit_load_b(nt, kt);
                    last_mm = emit_mm(mt, nt, kt, a_idx, b_idx);
                }
                emit_store(mt, nt, last_mm);
            }
        }
        break;
      case Order::NKM:
        for (std::uint64_t nt = 0; nt < n_tiles; ++nt) {
            std::vector<std::uint32_t> last_mm(m_tiles, 0);
            for (std::uint64_t kt = 0; kt < k_tiles; ++kt) {
                const auto b_idx = emit_load_b(nt, kt);
                for (std::uint64_t mt = 0; mt < m_tiles; ++mt) {
                    const auto a_idx = emit_load_a(mt, kt);
                    last_mm[mt] = emit_mm(mt, nt, kt, a_idx, b_idx);
                }
            }
            for (std::uint64_t mt = 0; mt < m_tiles; ++mt)
                emit_store(mt, nt, last_mm[mt]);
        }
        break;
      case Order::MKN:
        for (std::uint64_t mt = 0; mt < m_tiles; ++mt) {
            std::vector<std::uint32_t> last_mm(n_tiles, 0);
            for (std::uint64_t kt = 0; kt < k_tiles; ++kt) {
                const auto a_idx = emit_load_a(mt, kt);
                for (std::uint64_t nt = 0; nt < n_tiles; ++nt) {
                    const auto b_idx = emit_load_b(nt, kt);
                    last_mm[nt] = emit_mm(mt, nt, kt, a_idx, b_idx);
                }
            }
            for (std::uint64_t nt = 0; nt < n_tiles; ++nt)
                emit_store(mt, nt, last_mm[nt]);
        }
        break;
    }
}

void
Codegen::stream(const StreamTask &task)
{
    // Chunked load -> SFU -> store pipeline.
    const Bytes in_elem = task.inFp32 ? 4 : 1;
    const std::uint64_t chunk = 128 * 1024;
    const std::uint64_t chunks =
        std::max<std::uint64_t>(1, (task.inElems + chunk - 1) / chunk);

    const Addr in_base = tensorAddr(
        task.inTensor,
        std::max<Bytes>(task.inElems * in_elem, 64),
        Region::Activations);
    Addr in2_base = 0;
    if (!task.inTensor2.empty()) {
        in2_base = tensorAddr(
            task.inTensor2,
            std::max<Bytes>(task.inElems2 * in_elem, 64),
            Region::Activations);
    }
    const Region out_region = task.isWeightGradient
                                  ? Region::WeightGrads
                                  : Region::Activations;
    const Bytes out_elem_bytes = task.outFp32 ? 4 : 1;
    const Addr out_base = tensorAddr(
        task.outTensor,
        std::max<Bytes>(task.outElems * out_elem_bytes, 64),
        out_region);

    const auto in_deps = readersDeps(task.inTensor);
    const auto in2_deps = task.inTensor2.empty()
                              ? std::vector<std::uint32_t>{}
                              : readersDeps(task.inTensor2);

    for (std::uint64_t c = 0; c < chunks; ++c) {
        const std::uint64_t in_elems =
            std::min<std::uint64_t>(chunk,
                                    task.inElems - c * chunk);
        const std::uint64_t out_elems = std::max<std::uint64_t>(
            1, task.outElems / chunks);
        const std::uint64_t sfu_ops = std::max<std::uint64_t>(
            1, task.sfuOps / chunks);

        Instr li;
        li.op = Opcode::VLOAD;
        li.phase = task.phase;
        li.addr = in_base + c * chunk * in_elem;
        li.bytes = std::max<Bytes>(in_elems * in_elem, 1);
        li.buf = BufId::NBin;
        std::vector<std::uint32_t> deps = in_deps;
        const auto li_idx = emit(std::move(li), std::move(deps));

        std::vector<std::uint32_t> sfu_deps{li_idx};
        if (!task.inTensor2.empty()) {
            Instr l2;
            l2.op = Opcode::VLOAD;
            l2.phase = task.phase;
            l2.addr = in2_base + c * chunk * in_elem;
            l2.bytes = std::max<Bytes>(
                (task.inElems2 / chunks) * in_elem, 1);
            l2.buf = BufId::NBin;
            sfu_deps.push_back(emit(std::move(l2), in2_deps));
        }

        Instr sf;
        sf.op = Opcode::SFU;
        sf.phase = task.phase;
        sf.elems = sfu_ops;
        const auto sf_idx = emit(std::move(sf), std::move(sfu_deps));

        if (task.outFp32) {
            if (task.isWeightGradient && useNdp()) {
                Instr wgs;
                wgs.op = Opcode::WGSTORE;
                wgs.phase = Phase::WU;
                wgs.addr = tensorAddr("w:" + task.layer,
                                      task.outElems * 4,
                                      Region::Weights) +
                           c * chunk * 4;
                wgs.bytes = out_elems * 4;
                wgs.elems = out_elems;
                noteWrite(task.outTensor,
                          emit(std::move(wgs), {sf_idx, crosetIdx_}));
            } else {
                Instr vs;
                vs.op = Opcode::VSTORE;
                vs.phase = task.phase;
                vs.addr = out_base + c * chunk * 4;
                vs.bytes = out_elems * 4;
                vs.buf = BufId::NBout;
                noteWrite(task.outTensor,
                          emit(std::move(vs), {sf_idx}));
            }
        } else {
            quantizedStore(task.outTensor,
                           out_base + c * chunk * out_elem_bytes,
                           out_elems, task.phase, task.waysOut,
                           {sf_idx});
        }
    }
}

void
Codegen::update(const UpdateTask &task)
{
    // Non-NDP weight update: stream dW, w and the optimizer state
    // through the core, compute, and write everything back -- the
    // full-precision traffic the NDP engine exists to eliminate.
    const unsigned state = stateTensors();
    const std::uint64_t chunk = 256 * 1024;
    const std::uint64_t chunks = std::max<std::uint64_t>(
        1, (task.numWeights + chunk - 1) / chunk);

    const Addr wg_base = tensorAddr("wg:" + task.layer,
                                    task.numWeights * 4,
                                    Region::WeightGrads);
    const Addr w_base = tensorAddr("w:" + task.layer,
                                   task.numWeights * 4,
                                   Region::Weights);
    const Addr m_base = tensorAddr("m:" + task.layer,
                                   task.numWeights * 4, Region::StateM);
    const Addr v_base = tensorAddr("v:" + task.layer,
                                   task.numWeights * 4, Region::StateV);

    const auto wg_deps = readersDeps("wg:" + task.layer);

    for (std::uint64_t c = 0; c < chunks; ++c) {
        const std::uint64_t elems = std::min<std::uint64_t>(
            chunk, task.numWeights - c * chunk);
        const Bytes bytes = elems * 4;
        std::vector<std::uint32_t> compute_deps;

        Instr lg;
        lg.op = Opcode::VLOAD;
        lg.phase = Phase::WU;
        lg.addr = wg_base + c * chunk * 4;
        lg.bytes = bytes;
        lg.buf = BufId::NBin;
        compute_deps.push_back(emit(std::move(lg), wg_deps));

        Instr lw;
        lw.op = Opcode::VLOAD;
        lw.phase = Phase::WU;
        lw.addr = w_base + c * chunk * 4;
        lw.bytes = bytes;
        lw.buf = BufId::NBin;
        compute_deps.push_back(emit(std::move(lw), {}));

        for (unsigned s = 0; s < state; ++s) {
            Instr ls;
            ls.op = Opcode::VLOAD;
            ls.phase = Phase::WU;
            ls.addr = (s == 0 ? m_base : v_base) + c * chunk * 4;
            ls.bytes = bytes;
            ls.buf = BufId::NBin;
            compute_deps.push_back(emit(std::move(ls), {}));
        }

        // The element-wise optimizer arithmetic on the vector units.
        Instr vm;
        vm.op = Opcode::VMUL;
        vm.phase = Phase::WU;
        vm.elems = elems * (2 + 2 * state);
        const auto vm_idx =
            emit(std::move(vm), std::move(compute_deps));

        Instr sw;
        sw.op = Opcode::VSTORE;
        sw.phase = Phase::WU;
        sw.addr = w_base + c * chunk * 4;
        sw.bytes = bytes;
        sw.buf = BufId::NBout;
        emit(std::move(sw), {vm_idx});

        for (unsigned s = 0; s < state; ++s) {
            Instr ss;
            ss.op = Opcode::VSTORE;
            ss.phase = Phase::WU;
            ss.addr = (s == 0 ? m_base : v_base) + c * chunk * 4;
            ss.bytes = bytes;
            ss.buf = BufId::NBout;
            emit(std::move(ss), {vm_idx});
        }
    }
}

} // namespace

Program
generateProgram(const WorkloadIR &ir,
                const arch::CambriconQConfig &config,
                const CodegenOptions &options)
{
    Codegen cg(ir, config, options);
    return cg.run();
}

TrafficSummary
summarizeTraffic(const arch::Program &prog)
{
    TrafficSummary out;
    for (const auto &ins : prog) {
        switch (ins.op) {
          case Opcode::VLOAD:
          case Opcode::SLOAD:
          case Opcode::QLOAD:
            out.loadBytes += ins.bytes;
            if (ins.op == Opcode::QLOAD)
                out.fullPrecisionBytes += ins.bytes;
            break;
          case Opcode::VSTORE:
          case Opcode::SSTORE:
          case Opcode::QSTORE:
            out.storeBytes += ins.bytes;
            break;
          case Opcode::WGSTORE:
            out.storeBytes += ins.bytes;
            out.fullPrecisionBytes += ins.bytes;
            break;
          case Opcode::QMOVE:
            out.loadBytes += ins.bytes;
            out.storeBytes += ins.bytes2;
            out.fullPrecisionBytes += ins.bytes;
            break;
          default:
            break;
        }
    }
    return out;
}

} // namespace cq::compiler
