#include "circuit/exec_plan.h"

#include <algorithm>

namespace spatial::circuit
{

ExecPlan::ExecPlan(const Netlist &netlist)
    : numNodes_(netlist.numNodes()),
      numInputPorts_(netlist.numInputPorts()),
      registerBits_(netlist.registerBits())
{
    const auto n = static_cast<NodeId>(numNodes_);
    // Size every tape exactly up front: one pass over the kinds, no
    // regrowth copies of the (large) tapes.
    std::size_t kinds[static_cast<std::size_t>(CompKind::Sub) + 1] = {};
    for (NodeId id = 0; id < n; ++id)
        ++kinds[static_cast<std::size_t>(netlist.kind(id))];
    const auto count = [&](CompKind kind) {
        return kinds[static_cast<std::size_t>(kind)];
    };
    comb_.reserve(count(CompKind::Not) + count(CompKind::And));
    regs_.reserve(count(CompKind::Dff) + count(CompKind::Adder) +
                  count(CompKind::Sub));
    inputs_.reserve(count(CompKind::Input));
    constOnes_.reserve(count(CompKind::Const1));

    for (NodeId id = 0; id < n; ++id) {
        switch (netlist.kind(id)) {
          case CompKind::Const0:
            // Value slots power on to zero and nothing ever writes a
            // Const0 slot, so the tape carries no op for it.
            break;
          case CompKind::Const1:
            constOnes_.push_back(id);
            break;
          case CompKind::Input:
            inputs_.push_back(InputOp{id, netlist.inputPort(id)});
            break;
          case CompKind::Not:
            comb_.push_back(
                CombOp{id, netlist.srcA(id), onesSlot(), ~std::uint64_t{0}});
            break;
          case CompKind::And:
            comb_.push_back(
                CombOp{id, netlist.srcA(id), netlist.srcB(id), 0});
            break;
          case CompKind::Dff:
            regs_.push_back(
                RegOp{id, netlist.srcA(id), zeroSlot(), 0, 0});
            break;
          case CompKind::Adder:
            regs_.push_back(
                RegOp{id, netlist.srcA(id), netlist.srcB(id), 0, 0});
            break;
          case CompKind::Sub:
            regs_.push_back(RegOp{id, netlist.srcA(id), netlist.srcB(id),
                                  ~std::uint64_t{0}, ~std::uint64_t{0}});
            break;
        }
    }

    // Appended in ascending id order above; reverse for the in-place
    // commit ordering (descending dst).
    std::reverse(regs_.begin(), regs_.end());
}

std::shared_ptr<const Segmentation>
ExecPlan::segmentation(std::size_t ops_per_segment) const
{
    ops_per_segment = std::max<std::size_t>(1, ops_per_segment);
    std::lock_guard<std::mutex> lock(segmentationMutex_);
    auto &slot = segmentations_[ops_per_segment];
    if (slot == nullptr)
        slot = std::make_shared<const Segmentation>(*this, ops_per_segment);
    return slot;
}

std::size_t
Segmentation::opsForBudget(std::size_t segment_kib, unsigned lane_words)
{
    const std::size_t op_bytes =
        4 * sizeof(std::uint64_t) * std::max(1u, lane_words);
    return std::max<std::size_t>(16, segment_kib * 1024 / op_bytes);
}

Segmentation::Segmentation(const ExecPlan &plan, std::size_t ops_per_segment)
    : opsPerSegment_(std::max<std::size_t>(1, ops_per_segment))
{
    const auto &plan_comb = plan.comb();
    const auto &plan_regs = plan.regs();
    const std::size_t num_slots = plan.numSlots();
    const std::size_t num_ops = plan_comb.size() + plan_regs.size();
    const auto num_nodes = static_cast<NodeId>(plan.numNodes());

    // One ascending id walk does three jobs.  It resolves register
    // depth per slot (== bit-serial stream latency): inputs and
    // constants are 0, registers are one past their deepest source,
    // comb ops propagate within the cycle — both tapes are sorted by
    // dst (comb ascending, regs descending) and every source id is
    // below its dst, so each source is resolved before its reader.
    // It lists the ops in ascending dst order with a histogram of
    // their depths.  And it gives the non-op nodes (inputs and
    // constants, never written by a sweep) the front of the slot
    // space in id order.
    struct Op
    {
        std::uint32_t index;
        bool isReg;
    };
    std::vector<std::uint32_t> depth(num_slots, 0);
    std::vector<Op> by_dst;
    by_dst.reserve(num_ops);
    std::vector<std::uint32_t> depth_start;
    slotOf_.resize(num_slots);
    NodeId next_slot = 0;
    std::size_t ci = 0;
    std::size_t ri = plan_regs.size();
    for (NodeId id = 0; id < num_nodes; ++id) {
        std::uint32_t d = 0;
        if (ci < plan_comb.size() && plan_comb[ci].dst == id) {
            const auto &op = plan_comb[ci];
            d = std::max(depth[op.a], depth[op.b]);
            by_dst.push_back(Op{static_cast<std::uint32_t>(ci++), false});
        } else if (ri > 0 && plan_regs[ri - 1].dst == id) {
            const auto &op = plan_regs[--ri];
            d = std::max(depth[op.a], depth[op.b]) + 1;
            by_dst.push_back(Op{static_cast<std::uint32_t>(ri), true});
        } else {
            slotOf_[id] = next_slot++;
            continue;
        }
        depth[id] = d;
        // Depth grows by at most one per node, so this resizes by one.
        if (d + 1 >= depth_start.size())
            depth_start.resize(d + 2, 0);
        ++depth_start[d + 1];
    }
    slotOf_[num_nodes] = static_cast<NodeId>(num_nodes);         // ones
    slotOf_[num_nodes + 1] = static_cast<NodeId>(num_nodes + 1); // zero

    // Order every op by (depth, dst) with a stable counting sort by
    // depth: by_dst is already in dst order, so each depth bucket
    // keeps it.  Sources sort strictly before their consumers (comb
    // sources at the same depth have lower ids; register sources sit
    // one depth below), so the comb subsequence stays topological
    // while nodes that quiesce together share segments.
    for (std::size_t d = 1; d < depth_start.size(); ++d)
        depth_start[d] += depth_start[d - 1];
    const auto dstOf = [&](const Op &op) {
        return op.isReg ? plan_regs[op.index].dst : plan_comb[op.index].dst;
    };
    std::vector<Op> order(num_ops);
    for (const Op &op : by_dst)
        order[depth_start[depth[dstOf(op)]]++] = op;

    // Chunk into segments, renumbering each op's destination into the
    // next slot of the schedule (so each segment owns one contiguous
    // slice of the value array; the ones/zero slots stay at numNodes
    // and numNodes + 1 so a simulator's reset code is layout-agnostic)
    // and rewriting its sources, which the topological order has
    // already renumbered.  owner records which segment writes each
    // slot, with the low bit set for register slots (for the consumer
    // scan below); slots nobody writes stay kUnowned.
    constexpr std::uint32_t kUnowned = 0xffffffffu;
    std::vector<std::uint32_t> owner(num_slots, kUnowned);
    comb_.reserve(plan_comb.size());
    regs_.reserve(plan_regs.size());
    segments_.reserve((num_ops + opsPerSegment_ - 1) / opsPerSegment_);
    for (std::size_t first = 0; first < num_ops; first += opsPerSegment_) {
        const std::size_t last = std::min(num_ops, first + opsPerSegment_);
        Segment seg{};
        seg.combBegin = static_cast<std::uint32_t>(comb_.size());
        seg.regBegin = static_cast<std::uint32_t>(regs_.size());
        const auto index = static_cast<std::uint32_t>(segments_.size());
        for (std::size_t i = first; i < last; ++i) {
            const Op &op = order[i];
            const NodeId slot = next_slot++;
            owner[slot] = (index << 1) | (op.isReg ? 1u : 0u);
            if (op.isReg) {
                const auto &reg = plan_regs[op.index];
                slotOf_[reg.dst] = slot;
                regs_.push_back(ExecPlan::RegOp{slot, slotOf_[reg.a],
                                                slotOf_[reg.b], reg.bInv,
                                                reg.carryInit});
            } else {
                const auto &comb = plan_comb[op.index];
                slotOf_[comb.dst] = slot;
                comb_.push_back(ExecPlan::CombOp{slot, slotOf_[comb.a],
                                                 slotOf_[comb.b],
                                                 comb.inv});
            }
        }
        seg.combEnd = static_cast<std::uint32_t>(comb_.size());
        seg.regEnd = static_cast<std::uint32_t>(regs_.size());
        segments_.push_back(seg);
    }

    inputs_.reserve(plan.inputs().size());
    for (const auto &in : plan.inputs())
        inputs_.push_back(ExecPlan::InputOp{slotOf_[in.node], in.port});
    constOnes_.reserve(plan.constOnes().size());
    for (const auto node : plan.constOnes())
        constOnes_.push_back(slotOf_[node]);

    // Consumers: the inverse index of who to wake on a change, split
    // by what is read — comb values propagate within the cycle,
    // register values only after the next flip.  Bucket 2*i lists the
    // readers of segment i's comb slots, bucket 2*i + 1 those of its
    // register slots, which is also the order consumers() stores them
    // in.  Unowned sources need no entry: inputs change only on cycles
    // that run the dense fallback, which executes every segment
    // anyway, and constants never change after reset.  Reads inside
    // the owning segment need no wake either — a segment recomputes
    // everything when it runs, and its own register changes re-arm it
    // via the reg_change self-wake.  Readers are visited in ascending
    // segment order, so each bucket comes out sorted, and comparing
    // against the bucket's last reader removes duplicates.
    const std::size_t num_segments = segments_.size();
    std::vector<std::uint32_t> last_reader(2 * num_segments, kUnowned);
    std::vector<std::uint32_t> bucket_start(2 * num_segments + 1, 0);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::uint32_t s = 0; s < num_segments; ++s) {
        const Segment &seg = segments_[s];
        const auto addSource = [&](NodeId src) {
            const std::uint32_t o = owner[src];
            if (o == kUnowned || (o >> 1) == s || last_reader[o] == s)
                return;
            last_reader[o] = s;
            ++bucket_start[o + 1];
            edges.emplace_back(o, s);
        };
        for (std::uint32_t i = seg.combBegin; i < seg.combEnd; ++i) {
            addSource(comb_[i].a);
            addSource(comb_[i].b);
        }
        for (std::uint32_t i = seg.regBegin; i < seg.regEnd; ++i) {
            addSource(regs_[i].a);
            addSource(regs_[i].b);
        }
    }
    for (std::size_t b = 1; b < bucket_start.size(); ++b)
        bucket_start[b] += bucket_start[b - 1];
    for (std::size_t s = 0; s < num_segments; ++s) {
        Segment &seg = segments_[s];
        seg.combConsumersBegin = bucket_start[2 * s];
        seg.combConsumersEnd = bucket_start[2 * s + 1];
        seg.regConsumersBegin = bucket_start[2 * s + 1];
        seg.regConsumersEnd = bucket_start[2 * s + 2];
    }
    // A stable placement by bucket keeps each bucket's ascending order.
    consumers_.resize(edges.size());
    for (const auto &[bucket, reader] : edges)
        consumers_[bucket_start[bucket]++] = reader;
}

} // namespace spatial::circuit
