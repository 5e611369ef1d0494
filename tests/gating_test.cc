/**
 * @file
 * Equivalence and invariant suite for segmented, activity-gated tape
 * execution: the gated BlockSimulator must be bit-identical — outputs
 * *and* register toggle counts — to WideSimulator and to the ungated
 * full sweeps at every segment size (including sizes that do not
 * divide the tape and a single segment swallowing the whole netlist),
 * for every supported SIMD kernel and lane width, across quiet input
 * phases (where segments skip), active phases (where the dense
 * fallback runs), and the transitions between them.  Also pins the
 * Segmentation build invariants and the engine's resolved-knob
 * reporting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "circuit/block_simulator.h"
#include "circuit/exec_plan.h"
#include "circuit/kernels.h"
#include "circuit/wide_simulator.h"
#include "common/rng.h"
#include "core/batch_engine.h"
#include "core/compiler.h"
#include "core/tiled_design.h"
#include "matrix/generate.h"

namespace
{

using namespace spatial;
using core::CompileOptions;
using core::MatrixCompiler;
using core::SimOptions;

/** A netlist exercising every component kind. */
circuit::Netlist
makeKitchenSinkNetlist()
{
    circuit::Netlist nl;
    const auto zero = nl.addConst0();
    const auto one = nl.addConst1();
    const auto a = nl.addInput(0);
    const auto b = nl.addInput(1);
    const auto na = nl.addNot(a);
    const auto ab = nl.addAnd(a, b);
    const auto sum = nl.addAdder(a, b);
    const auto diff = nl.addSub(sum, ab);
    const auto d1 = nl.addDff(diff);
    const auto gated = nl.addAnd(d1, one);
    const auto carryish = nl.addAdder(gated, na);
    nl.addSub(zero, carryish);
    nl.addDelay(carryish, 3);
    return nl;
}

/**
 * Drive a gated BlockSimulator<W> and W WideSimulators with identical
 * streams that alternate random and constant phases (constant phases
 * are what make segments skip; the random re-entry exercises the dense
 * fallback and its transitions), asserting every node every cycle and
 * the toggle totals at the end.
 */
template <unsigned W>
void
checkGatedAgainstWide(const circuit::Netlist &nl,
                      std::size_t ops_per_segment,
                      const circuit::kernels::Kernel *kernel,
                      std::uint64_t seed)
{
    const circuit::ExecPlan plan(nl);
    const auto segmentation = plan.segmentation(ops_per_segment);
    circuit::BlockSimulator<W> block(plan, kernel, segmentation);
    ASSERT_TRUE(block.gated());
    std::vector<circuit::WideSimulator> wides(W,
                                              circuit::WideSimulator(nl));

    Rng rng(seed);
    const std::size_t ports = nl.numInputPorts();
    std::vector<std::uint64_t> plane(ports * W, 0);
    const int cycles = 48;
    for (int t = 0; t < cycles; ++t) {
        // Random for 8 cycles, frozen for 10, twice over.
        const int phase = t % 18;
        if (phase < 8)
            for (auto &word : plane)
                word = rng.next();

        block.settle(plane.data(), ports);
        for (unsigned w = 0; w < W; ++w) {
            std::vector<std::uint64_t> words(ports);
            for (std::size_t p = 0; p < ports; ++p)
                words[p] = plane[p * W + w];
            wides[w].step(words);
            for (circuit::NodeId id = 0; id < nl.numNodes(); ++id) {
                ASSERT_EQ(block.outputWord(id, w), wides[w].outputWord(id))
                    << "kernel " << block.kernel().name << " ops/seg "
                    << ops_per_segment << " cycle " << t << " word " << w
                    << " node " << id;
            }
        }
        block.commit();
    }

    std::uint64_t wide_toggles = 0;
    for (const auto &wide : wides)
        wide_toggles += wide.toggleCount();
    EXPECT_EQ(block.toggleCount(), wide_toggles)
        << "kernel " << block.kernel().name << " ops/seg "
        << ops_per_segment;
    // The frozen phases must actually exercise the skip path.
    EXPECT_GT(block.segmentsSkipped(), 0u)
        << "ops/seg " << ops_per_segment;
}

/** Every supported kernel, one lane width, several segment sizes. */
template <unsigned W>
void
checkGatedAllKernels(std::uint64_t seed)
{
    const auto nl = makeKitchenSinkNetlist();
    // 1 = one op per segment; 3 does not divide the op count; 1000
    // swallows the whole netlist into a single segment.
    for (const std::size_t ops_per_segment : {std::size_t{1},
                                              std::size_t{3},
                                              std::size_t{1000}})
        for (const auto *kernel : circuit::kernels::supportedKernels())
            checkGatedAgainstWide<W>(nl, ops_per_segment, kernel, seed);
}

TEST(Gating, MatchesWideSimulatorEverySegmentSizeW1)
{
    checkGatedAllKernels<1>(71);
}

TEST(Gating, MatchesWideSimulatorEverySegmentSizeW2)
{
    checkGatedAllKernels<2>(72);
}

TEST(Gating, MatchesWideSimulatorEverySegmentSizeW4)
{
    checkGatedAllKernels<4>(73);
}

TEST(Gating, MatchesWideSimulatorEverySegmentSizeW8)
{
    checkGatedAllKernels<8>(74);
}

TEST(Gating, ResetRestoresPowerOnStateAndCounters)
{
    const auto nl = makeKitchenSinkNetlist();
    const circuit::ExecPlan plan(nl);
    circuit::BlockSimulator<2> sim(plan, nullptr, plan.segmentation(2));

    std::vector<std::uint64_t> ones(nl.numInputPorts() * 2,
                                    ~std::uint64_t{0});
    for (int t = 0; t < 6; ++t)
        sim.step(ones.data(), nl.numInputPorts());
    EXPECT_GT(sim.toggleCount(), 0u);
    EXPECT_GT(sim.segmentsExecuted(), 0u);

    sim.reset();
    EXPECT_EQ(sim.cycle(), 0u);
    EXPECT_EQ(sim.toggleCount(), 0u);
    EXPECT_EQ(sim.segmentsExecuted(), 0u);
    EXPECT_EQ(sim.segmentsSkipped(), 0u);

    // A reset gated simulator must track a fresh WideSimulator,
    // including through a quiet phase.
    circuit::WideSimulator wide(nl);
    Rng rng(31);
    std::vector<std::uint64_t> words(nl.numInputPorts() * 2, 0);
    for (int t = 0; t < 30; ++t) {
        if (t % 11 < 5)
            for (auto &word : words)
                word = rng.next();
        sim.settle(words.data(), nl.numInputPorts());
        std::vector<std::uint64_t> lane0(nl.numInputPorts());
        for (std::size_t p = 0; p < lane0.size(); ++p)
            lane0[p] = words[p * 2];
        wide.step(lane0);
        for (circuit::NodeId id = 0; id < nl.numNodes(); ++id)
            ASSERT_EQ(sim.outputWord(id, 0), wide.outputWord(id));
        sim.commit();
    }
}

// ---------------------------------------------------------------------
// End-to-end differential through the batch engine
// ---------------------------------------------------------------------

/**
 * Gated and ungated multiplyBatchWide must agree with the scalar
 * reference for every kernel and several segment sizes, on batches
 * that do not divide the lane count.
 */
void
checkGatedBatchEquivalence(const IntMatrix &weights,
                           CompileOptions options, std::uint64_t seed)
{
    const auto design = MatrixCompiler(options).compile(weights);
    Rng rng(seed);
    const std::size_t batch_rows = 130;
    IntMatrix batch(batch_rows, weights.rows());
    for (std::size_t b = 0; b < batch_rows; ++b)
        for (std::size_t r = 0; r < weights.rows(); ++r)
            batch.at(b, r) =
                options.inputsSigned
                    ? rng.uniformInt(-(1 << (options.inputBits - 1)),
                                     (1 << (options.inputBits - 1)) - 1)
                    : rng.uniformInt(0, (1 << options.inputBits) - 1);

    const auto scalar = design.multiplyBatch(batch);
    for (const auto *kernel : circuit::kernels::supportedKernels()) {
        for (const unsigned segment_kib : {1u, 4u, 64u, 4096u}) {
            for (const unsigned lane_words : {1u, 4u, 8u}) {
                SimOptions sim;
                sim.threads = 1;
                sim.kernel = kernel;
                sim.laneWords = lane_words;
                sim.activityGating = true;
                sim.segmentKib = segment_kib;
                ASSERT_EQ(scalar, design.multiplyBatchWide(batch, sim))
                    << "kernel " << kernel->name << " segKib "
                    << segment_kib << " W " << lane_words;
            }
        }
        SimOptions ungated;
        ungated.threads = 1;
        ungated.kernel = kernel;
        ungated.activityGating = false;
        ASSERT_EQ(scalar, design.multiplyBatchWide(batch, ungated))
            << "kernel " << kernel->name;
    }

    // Auto knobs (gating defaults on), threaded.
    SimOptions threaded;
    threaded.threads = 4;
    threaded.laneWords = 1;
    ASSERT_EQ(scalar, design.multiplyBatchWide(batch, threaded));
    ASSERT_EQ(scalar, design.multiplyBatchWide(batch));
}

TEST(Gating, BatchEquivalenceCsdSigned)
{
    Rng rng(81);
    const auto v = makeSignedElementSparseMatrix(24, 20, 6, 0.6, rng);
    CompileOptions options;
    options.inputBits = 7;
    options.signMode = core::SignMode::Csd;
    checkGatedBatchEquivalence(v, options, 181);
}

TEST(Gating, BatchEquivalencePnUnsignedInputs)
{
    Rng rng(82);
    const auto v = makeSignedElementSparseMatrix(18, 22, 5, 0.4, rng);
    CompileOptions options;
    options.inputBits = 6;
    options.inputsSigned = false;
    options.signMode = core::SignMode::PnSplit;
    checkGatedBatchEquivalence(v, options, 182);
}

TEST(Gating, BatchEquivalenceAblationWithCombOps)
{
    // constantPropagation off keeps the AND-gate plane, so the gated
    // engine's comb sweeps and the comb-forced up-front flip path run.
    Rng rng(83);
    const auto v = makeSignedElementSparseMatrix(10, 8, 4, 0.5, rng);
    CompileOptions options;
    options.inputBits = 5;
    options.constantPropagation = false;
    checkGatedBatchEquivalence(v, options, 183);
}

TEST(Gating, ToggleCountsInvariantUnderGating)
{
    Rng rng(91);
    const auto v = makeSignedElementSparseMatrix(20, 20, 8, 0.6, rng);
    const auto design = MatrixCompiler(CompileOptions{}).compile(v);
    const auto probe = makeSignedBatch(48, 20, 8, rng);

    SimOptions gated;
    gated.activityGating = true;
    SimOptions ungated;
    ungated.activityGating = false;
    // measuredActivity is toggles / (bits * cycles * lanes): equality
    // of the ratio at identical shape means identical toggle totals.
    EXPECT_DOUBLE_EQ(core::measureSwitchingActivity(design, probe, gated),
                     core::measureSwitchingActivity(design, probe,
                                                    ungated));
}

TEST(Gating, SkippedSegmentsReportedByBatchStats)
{
    Rng rng(92);
    const auto v = makeSignedElementSparseMatrix(32, 32, 8, 0.8, rng);
    core::CompileOptions options;
    options.signMode = core::SignMode::Csd;
    const auto design = MatrixCompiler(options).compile(v);
    const auto batch = makeSignedBatch(130, 32, 8, rng);

    SimOptions gated;
    gated.threads = 2;
    gated.activityGating = true;
    core::BatchStats stats;
    (void)core::runBatchWide(design, batch, gated, &stats);
    EXPECT_GT(stats.segmentsExecuted, 0u);
    EXPECT_GT(stats.segmentsSkipped, 0u);

    SimOptions ungated;
    ungated.activityGating = false;
    core::BatchStats off;
    (void)core::runBatchWide(design, batch, ungated, &off);
    EXPECT_EQ(off.segmentsExecuted, 0u);
    EXPECT_EQ(off.segmentsSkipped, 0u);
}

TEST(Gating, TapeGemvGatedMatchesScalarAndCountsSegments)
{
    Rng rng(93);
    const auto v = makeSignedElementSparseMatrix(16, 16, 6, 0.5, rng);
    core::CompileOptions options;
    options.inputBits = 6;
    const auto design = MatrixCompiler(options).compile(v);

    SimOptions gated;
    gated.activityGating = true;
    core::TapeGemv gemv(design, gated);
    for (int i = 0; i < 4; ++i) {
        const auto x = makeSignedVector(16, 6, rng);
        EXPECT_EQ(gemv.multiply(x), design.multiply(x));
    }
    EXPECT_GT(gemv.engineStats().segmentsExecuted, 0u);
}

// ---------------------------------------------------------------------
// Segmentation build invariants
// ---------------------------------------------------------------------

TEST(Segmentation, PartitionsEveryOpExactlyOnce)
{
    Rng rng(94);
    const auto v = makeSignedElementSparseMatrix(12, 12, 5, 0.5, rng);
    const auto design = MatrixCompiler(CompileOptions{}).compile(v);
    const auto &plan = design.plan();

    for (const std::size_t ops_per_segment : {std::size_t{1},
                                              std::size_t{7},
                                              std::size_t{100000}}) {
        const auto seg = plan.segmentation(ops_per_segment);
        ASSERT_EQ(seg->comb().size(), plan.comb().size());
        ASSERT_EQ(seg->regs().size(), plan.regs().size());
        ASSERT_EQ(seg->inputs().size(), plan.inputs().size());
        ASSERT_EQ(seg->constOnes().size(), plan.constOnes().size());

        // Segments tile both tapes without gaps or overlaps.
        std::uint32_t comb_cursor = 0;
        std::uint32_t reg_cursor = 0;
        std::size_t total_ops = 0;
        for (const auto &s : seg->segments()) {
            EXPECT_EQ(s.combBegin, comb_cursor);
            EXPECT_EQ(s.regBegin, reg_cursor);
            EXPECT_LE(s.combBegin, s.combEnd);
            EXPECT_LE(s.regBegin, s.regEnd);
            comb_cursor = s.combEnd;
            reg_cursor = s.regEnd;
            total_ops += (s.combEnd - s.combBegin) +
                         (s.regEnd - s.regBegin);
        }
        EXPECT_EQ(comb_cursor, seg->comb().size());
        EXPECT_EQ(reg_cursor, seg->regs().size());
        EXPECT_EQ(total_ops, plan.comb().size() + plan.regs().size());

        // slotOf is a permutation of the node ids, with the ones/zero
        // slots fixed.
        std::vector<bool> seen(plan.numSlots(), false);
        for (const auto slot : seg->slotOf()) {
            ASSERT_LT(slot, plan.numSlots());
            ASSERT_FALSE(seen[slot]);
            seen[slot] = true;
        }
        EXPECT_EQ(seg->slotOf()[plan.onesSlot()], plan.onesSlot());
        EXPECT_EQ(seg->slotOf()[plan.zeroSlot()], plan.zeroSlot());

        // Sources resolve to earlier (or same) segments, never later —
        // the property both the wake scheme and the dense in-place
        // sweep rest on.
        std::vector<std::uint32_t> owner(plan.numSlots(), 0xffffffffu);
        for (std::size_t i = 0; i < seg->segments().size(); ++i) {
            const auto &s = seg->segments()[i];
            for (std::uint32_t k = s.combBegin; k < s.combEnd; ++k)
                owner[seg->comb()[k].dst] =
                    static_cast<std::uint32_t>(i);
            for (std::uint32_t k = s.regBegin; k < s.regEnd; ++k)
                owner[seg->regs()[k].dst] =
                    static_cast<std::uint32_t>(i);
        }
        for (std::size_t i = 0; i < seg->segments().size(); ++i) {
            const auto &s = seg->segments()[i];
            const auto checkSource = [&](circuit::NodeId src) {
                if (owner[src] != 0xffffffffu) {
                    EXPECT_LE(owner[src], i);
                }
            };
            for (std::uint32_t k = s.combBegin; k < s.combEnd; ++k) {
                checkSource(seg->comb()[k].a);
                checkSource(seg->comb()[k].b);
            }
            for (std::uint32_t k = s.regBegin; k < s.regEnd; ++k) {
                checkSource(seg->regs()[k].a);
                checkSource(seg->regs()[k].b);
            }
        }

        // The cache hands back the same immutable instance.
        EXPECT_EQ(seg.get(), plan.segmentation(ops_per_segment).get());
    }
}

/**
 * The schedule a Segmentation must produce, rebuilt independently: a
 * comparison sort of every op by (register depth, dst), then the slot
 * renumbering, chunking and consumer lists spelled out the plain way.
 * The production build derives the same order with a counting sort by
 * depth; this reference pins it byte for byte.
 */
struct ReferenceSchedule
{
    std::vector<circuit::Segmentation::Segment> segments;
    std::vector<circuit::ExecPlan::CombOp> comb;
    std::vector<circuit::ExecPlan::RegOp> regs;
    std::vector<std::uint32_t> consumers;
    std::vector<circuit::ExecPlan::InputOp> inputs;
    std::vector<circuit::NodeId> constOnes;
    std::vector<circuit::NodeId> slotOf;
};

ReferenceSchedule
referenceSchedule(const circuit::ExecPlan &plan, std::size_t ops_per_segment)
{
    using circuit::NodeId;
    const auto &plan_comb = plan.comb();
    const auto &plan_regs = plan.regs();
    const std::size_t n = plan.numNodes();

    std::vector<std::uint32_t> depth(plan.numSlots(), 0);
    std::vector<int> comb_at(n, -1);
    std::vector<int> reg_at(n, -1);
    for (std::size_t i = 0; i < plan_comb.size(); ++i)
        comb_at[plan_comb[i].dst] = static_cast<int>(i);
    for (std::size_t i = 0; i < plan_regs.size(); ++i)
        reg_at[plan_regs[i].dst] = static_cast<int>(i);
    for (std::size_t id = 0; id < n; ++id) {
        if (comb_at[id] >= 0) {
            const auto &op = plan_comb[comb_at[id]];
            depth[id] = std::max(depth[op.a], depth[op.b]);
        } else if (reg_at[id] >= 0) {
            const auto &op = plan_regs[reg_at[id]];
            depth[id] = std::max(depth[op.a], depth[op.b]) + 1;
        }
    }

    std::vector<NodeId> order;
    for (const auto &op : plan_comb)
        order.push_back(op.dst);
    for (const auto &op : plan_regs)
        order.push_back(op.dst);
    std::sort(order.begin(), order.end(), [&](NodeId x, NodeId y) {
        return std::make_pair(depth[x], x) < std::make_pair(depth[y], y);
    });

    ReferenceSchedule ref;
    ref.slotOf.assign(plan.numSlots(), 0);
    NodeId next = 0;
    for (std::size_t id = 0; id < n; ++id)
        if (comb_at[id] < 0 && reg_at[id] < 0)
            ref.slotOf[id] = next++;
    for (const NodeId dst : order)
        ref.slotOf[dst] = next++;
    ref.slotOf[n] = static_cast<NodeId>(n);
    ref.slotOf[n + 1] = static_cast<NodeId>(n + 1);
    const auto &slot = ref.slotOf;

    std::vector<std::size_t> owner(plan.numSlots(), SIZE_MAX);
    std::vector<bool> reg_slot(plan.numSlots(), false);
    for (std::size_t first = 0; first < order.size();
         first += ops_per_segment) {
        circuit::Segmentation::Segment seg{};
        seg.combBegin = static_cast<std::uint32_t>(ref.comb.size());
        seg.regBegin = static_cast<std::uint32_t>(ref.regs.size());
        const std::size_t last =
            std::min(order.size(), first + ops_per_segment);
        for (std::size_t i = first; i < last; ++i) {
            const NodeId dst = order[i];
            owner[slot[dst]] = ref.segments.size();
            if (reg_at[dst] >= 0) {
                const auto &op = plan_regs[reg_at[dst]];
                reg_slot[slot[dst]] = true;
                ref.regs.push_back({slot[op.dst], slot[op.a], slot[op.b],
                                    op.bInv, op.carryInit});
            } else {
                const auto &op = plan_comb[comb_at[dst]];
                ref.comb.push_back(
                    {slot[op.dst], slot[op.a], slot[op.b], op.inv});
            }
        }
        seg.combEnd = static_cast<std::uint32_t>(ref.comb.size());
        seg.regEnd = static_cast<std::uint32_t>(ref.regs.size());
        ref.segments.push_back(seg);
    }
    for (const auto &in : plan.inputs())
        ref.inputs.push_back({slot[in.node], in.port});
    for (const auto node : plan.constOnes())
        ref.constOnes.push_back(slot[node]);

    // Readers of each segment's comb and register slots, other than
    // the segment itself, sorted and deduplicated.
    std::vector<std::vector<std::uint32_t>> comb_readers(
        ref.segments.size());
    std::vector<std::vector<std::uint32_t>> reg_readers(
        ref.segments.size());
    for (std::size_t s = 0; s < ref.segments.size(); ++s) {
        const auto &seg = ref.segments[s];
        std::vector<NodeId> sources;
        for (std::uint32_t i = seg.combBegin; i < seg.combEnd; ++i) {
            sources.push_back(ref.comb[i].a);
            sources.push_back(ref.comb[i].b);
        }
        for (std::uint32_t i = seg.regBegin; i < seg.regEnd; ++i) {
            sources.push_back(ref.regs[i].a);
            sources.push_back(ref.regs[i].b);
        }
        for (const NodeId src : sources) {
            if (owner[src] == SIZE_MAX || owner[src] == s)
                continue;
            (reg_slot[src] ? reg_readers : comb_readers)[owner[src]]
                .push_back(static_cast<std::uint32_t>(s));
        }
    }
    for (std::size_t s = 0; s < ref.segments.size(); ++s) {
        auto &seg = ref.segments[s];
        for (auto *readers : {&comb_readers[s], &reg_readers[s]}) {
            std::sort(readers->begin(), readers->end());
            readers->erase(std::unique(readers->begin(), readers->end()),
                           readers->end());
        }
        seg.combConsumersBegin =
            static_cast<std::uint32_t>(ref.consumers.size());
        ref.consumers.insert(ref.consumers.end(), comb_readers[s].begin(),
                             comb_readers[s].end());
        seg.combConsumersEnd = seg.regConsumersBegin =
            static_cast<std::uint32_t>(ref.consumers.size());
        ref.consumers.insert(ref.consumers.end(), reg_readers[s].begin(),
                             reg_readers[s].end());
        seg.regConsumersEnd =
            static_cast<std::uint32_t>(ref.consumers.size());
    }
    return ref;
}

/** Index of the first element where two arrays differ, or -1. */
template <typename T, typename Same>
long
firstMismatch(const std::vector<T> &got, const std::vector<T> &want,
              Same same)
{
    const std::size_t n = std::min(got.size(), want.size());
    for (std::size_t i = 0; i < n; ++i)
        if (!same(got[i], want[i]))
            return static_cast<long>(i);
    return got.size() == want.size() ? -1 : static_cast<long>(n);
}

void
expectScheduleMatchesReference(const circuit::ExecPlan &plan,
                               const std::string &label)
{
    using circuit::ExecPlan;
    using Segment = circuit::Segmentation::Segment;
    for (const unsigned lane_words : {1u, 2u, 4u, 8u}) {
        for (const unsigned segment_kib : {1u, 4u, 64u}) {
            const std::size_t ops = circuit::Segmentation::opsForBudget(
                segment_kib, lane_words);
            SCOPED_TRACE(label + " W " + std::to_string(lane_words) +
                         " segKib " + std::to_string(segment_kib));
            const circuit::Segmentation seg(plan, ops);
            const ReferenceSchedule ref = referenceSchedule(plan, ops);

            EXPECT_EQ(firstMismatch(seg.segments(), ref.segments,
                                    [](const Segment &x, const Segment &y) {
                                        return x.combBegin == y.combBegin &&
                                               x.combEnd == y.combEnd &&
                                               x.regBegin == y.regBegin &&
                                               x.regEnd == y.regEnd &&
                                               x.combConsumersBegin ==
                                                   y.combConsumersBegin &&
                                               x.combConsumersEnd ==
                                                   y.combConsumersEnd &&
                                               x.regConsumersBegin ==
                                                   y.regConsumersBegin &&
                                               x.regConsumersEnd ==
                                                   y.regConsumersEnd;
                                    }),
                      -1)
                << "segments";
            EXPECT_EQ(firstMismatch(seg.comb(), ref.comb,
                                    [](const ExecPlan::CombOp &x,
                                       const ExecPlan::CombOp &y) {
                                        return x.dst == y.dst && x.a == y.a &&
                                               x.b == y.b && x.inv == y.inv;
                                    }),
                      -1)
                << "comb ops";
            EXPECT_EQ(firstMismatch(seg.regs(), ref.regs,
                                    [](const ExecPlan::RegOp &x,
                                       const ExecPlan::RegOp &y) {
                                        return x.dst == y.dst && x.a == y.a &&
                                               x.b == y.b &&
                                               x.bInv == y.bInv &&
                                               x.carryInit == y.carryInit;
                                    }),
                      -1)
                << "reg ops";
            EXPECT_EQ(firstMismatch(seg.inputs(), ref.inputs,
                                    [](const ExecPlan::InputOp &x,
                                       const ExecPlan::InputOp &y) {
                                        return x.node == y.node &&
                                               x.port == y.port;
                                    }),
                      -1)
                << "inputs";
            EXPECT_TRUE(seg.consumers() == ref.consumers) << "consumers";
            EXPECT_TRUE(seg.constOnes() == ref.constOnes) << "constOnes";
            EXPECT_TRUE(seg.slotOf() == ref.slotOf) << "slotOf";
        }
    }
}

TEST(Segmentation, ScheduleMatchesComparisonSortReference)
{
    // Every op kind, including comb ops at shared depths.
    expectScheduleMatchesReference(
        circuit::ExecPlan(makeKitchenSinkNetlist()), "kitchen sink");

    Rng rng(95);
    for (const auto mode : {core::SignMode::Unsigned,
                            core::SignMode::PnSplit,
                            core::SignMode::Csd}) {
        for (const std::size_t dim : {16, 64, 256}) {
            auto weights =
                makeSignedElementSparseMatrix(dim, dim, 8, 0.9, rng);
            if (mode == core::SignMode::Unsigned)
                for (std::size_t r = 0; r < dim; ++r)
                    for (std::size_t c = 0; c < dim; ++c)
                        weights.at(r, c) = std::abs(weights.at(r, c));
            CompileOptions options;
            options.inputBits = 8;
            options.inputsSigned = true;
            options.signMode = mode;
            // The ablation keeps the AND plane, so comb ops interleave
            // with the registers at every depth.
            options.constantPropagation = dim != 64;
            const auto design = MatrixCompiler(options).compile(weights);
            expectScheduleMatchesReference(
                design.plan(), std::string(core::signModeName(mode)) +
                                   " dim " + std::to_string(dim));
        }
    }

    // A multi-tile design: every tile's plan schedules independently.
    const auto weights = makeSignedElementSparseMatrix(96, 96, 8, 0.8, rng);
    CompileOptions options;
    options.signMode = core::SignMode::Csd;
    core::TileOptions tiling;
    tiling.maxTileCols = 40;
    const auto tiled = core::TiledDesign::compile(weights, options, tiling);
    ASSERT_GT(tiled.tileCount(), 1u);
    for (std::size_t t = 0; t < tiled.tileCount(); ++t)
        expectScheduleMatchesReference(tiled.tile(t).plan(),
                                       "tile " + std::to_string(t));
}

TEST(Segmentation, OpsForBudgetScalesAndFloors)
{
    using circuit::Segmentation;
    // 4 slots of W words of 8 bytes per op.
    EXPECT_EQ(Segmentation::opsForBudget(4, 1), 4u * 1024 / 32);
    EXPECT_EQ(Segmentation::opsForBudget(4, 8), 4u * 1024 / 256);
    // Tiny budgets clamp to a sane floor instead of degenerating.
    EXPECT_EQ(Segmentation::opsForBudget(0, 8), 16u);
}

// ---------------------------------------------------------------------
// Resolved-knob reporting (bench/serve artifacts record real values)
// ---------------------------------------------------------------------

TEST(ResolvedKnobs, ThreadsNeverReportTheAutoSentinel)
{
    Rng rng(95);
    const auto v = makeSignedElementSparseMatrix(16, 16, 6, 0.5, rng);
    const auto design = MatrixCompiler(CompileOptions{}).compile(v);

    SimOptions sim;
    sim.threads = 0; // auto
    // One 64-lane group at most: the resolved count clamps to 1.
    EXPECT_EQ(core::resolvedThreads(design, sim, 1), 1u);
    EXPECT_GE(core::resolvedThreads(design, sim, 4096), 1u);

    sim.threads = 3;
    sim.laneWords = 1;
    // Explicit threads clamp to the group count (4096 / 64 = 64 > 3).
    EXPECT_EQ(core::resolvedThreads(design, sim, 4096), 3u);
    EXPECT_EQ(core::resolvedThreads(design, sim, 64), 1u);
}

} // namespace
