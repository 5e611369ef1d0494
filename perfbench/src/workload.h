/**
 * @file
 * The benchmark's named workloads: what each serves, how its load is
 * shaped, and the seeded inputs and reference answers it is checked
 * against.  README.md explains why each workload exists.
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/tiled_design.h"
#include "matrix/dense.h"
#include "serve/request.h"

namespace perfbench
{

/** What carries a request from the generator to the Server. */
enum class Front
{
    InProcess, //!< serve::Server::submit in this process
    Tcp,       //!< loopback serve::NetServer via serve::NetClient
};

/** The request mix a workload sends. */
enum class Traffic
{
    GemvBatch,   //!< GemvBatch requests of batchRows vectors
    Gemv,        //!< single-vector Gemv requests
    EsnSequence, //!< steps-long EsnSequence trajectories
    GemvEsnStep, //!< even mix of Gemv and EsnStep
};

/** One named workload. */
struct WorkloadSpec
{
    std::string name;
    Front front = Front::InProcess;
    Traffic traffic = Traffic::Gemv;

    std::size_t designs = 1; //!< registered designs
    std::size_t dim = 128;   //!< square design dimension

    unsigned workers = 2;     //!< Server execution workers
    std::size_t maxBatch = 256; //!< Batcher lane budget
    /** Batcher deadline (ServeOptions::maxDelay). */
    std::chrono::microseconds maxDelay{2000};
    std::size_t storeCapacity = 64; //!< DesignStore hot tier
    bool spill = false;       //!< cold tier on disk

    std::size_t batchRows = 16; //!< GemvBatch rows
    std::size_t steps = 0;      //!< EsnSequence length

    /**
     * Closed loop: requests kept outstanding.  0 = open loop.  With
     * both a window and a rate, throughput comes from a closed loop
     * over the first half of the run and latency from an open loop
     * over the second.
     */
    std::size_t window = 0;
    double ratePerS = 0.0; //!< open loop: Poisson arrival rate
    double zipfS = 0.0;    //!< design popularity exponent (0 = uniform)

    /**
     * Equal slices of the measured window.  Throughput, latencies and
     * CPU time per vector are each the median of their per-slice
     * values, so a host-noise episode that covers a minority of the
     * slices does not move them.
     */
    std::size_t slices = 5;

    double sloMs = 0.0; //!< slo_frac latency limit

    std::size_t poolPerDesign = 16; //!< distinct checked requests
};

/** The workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloads();

/** The named workload, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** ESN activation parameters every ESN request uses. */
constexpr int kPostShift = 8;
constexpr int kStateBits = 8;

/** Weight / input bit width of every design. */
constexpr int kBits = 8;

/** Element sparsity of every design. */
constexpr double kSparsity = 0.9;

/** Compile options of every design (8-bit signed inputs, CSD). */
spatial::core::CompileOptions compileOptions();

/** The workload's weight matrices, generated from `seed`. */
std::vector<spatial::IntMatrix> makeWeights(const WorkloadSpec &spec,
                                            std::uint64_t seed);

/** One request the generator may send, with its expected reply. */
struct PoolEntry
{
    spatial::serve::Request request;
    spatial::IntMatrix expected; //!< reference output
    std::size_t vectors = 0;     //!< vectors the request counts as
};

/**
 * Per design, poolPerDesign requests drawn from `seed` and answered by
 * referenceAnswer().  The generator sends these repeatedly, so every
 * reply is checked without computing a reference on the hot path.
 */
std::vector<std::vector<PoolEntry>>
makePools(const WorkloadSpec &spec,
          const std::vector<spatial::IntMatrix> &weights,
          std::uint64_t seed);

/**
 * The reply a request must get, from a plain dense integer GEMV
 * (spatial::gemvRef) plus the ESN shift-and-clip written out here,
 * independent of the engine and of the serve layer.
 */
spatial::IntMatrix referenceAnswer(const spatial::serve::Request &request,
                                   const spatial::IntMatrix &weights);

/** Modelled-hardware counts summed over a workload's designs. */
struct DesignCounts
{
    std::uint64_t netlistNodes = 0;
    std::uint64_t weightOnes = 0;
    std::uint64_t drainCycles = 0;
    std::uint64_t tiles = 0;

    bool operator==(const DesignCounts &) const = default;
};

/** Accumulate one compiled design into the counts. */
void addCounts(DesignCounts &counts, const spatial::core::TiledDesign &d);

/** Popularity CDF over `designs` with Zipf exponent `s`. */
std::vector<double> zipfCdf(std::size_t designs, double s);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
