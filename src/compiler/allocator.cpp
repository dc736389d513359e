#include "compiler/allocator.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "solver/mip.hpp"
#include "support/logging.hpp"

namespace cmswitch {

namespace {

constexpr double kRateEps = 1e-9;

/** Split a memory-array count into input/output shares by byte ratio. */
void
splitMemory(const OpWorkload &w, s64 mem, s64 *mem_in, s64 *mem_out)
{
    s64 in_b = w.inputBytes + (w.dynamicWeights ? w.weightBytes : 0);
    s64 total_b = in_b + w.outputBytes;
    if (mem <= 0 || total_b <= 0) {
        *mem_in = 0;
        *mem_out = std::max<s64>(0, mem);
        return;
    }
    *mem_in = static_cast<s64>(std::llround(
        static_cast<double>(mem) * static_cast<double>(in_b)
        / static_cast<double>(total_b)));
    *mem_in = std::clamp<s64>(*mem_in, 0, mem);
    *mem_out = mem - *mem_in;
}

} // namespace

SegmentView
makeSegmentView(const std::vector<ScheduledOp> &ops, s64 lo, s64 hi)
{
    cmswitch_assert(lo >= 0 && hi <= static_cast<s64>(ops.size()) && lo < hi,
                    "bad segment range");
    SegmentView view;
    for (s64 i = lo; i < hi; ++i) {
        const ScheduledOp &s = ops[static_cast<std::size_t>(i)];
        view.ops.push_back(&s.work);
        for (std::size_t e = 0; e < s.preds.size(); ++e) {
            s64 p = s.preds[e];
            if (p >= lo && p < hi) {
                view.edges.push_back(
                    SegmentView::Edge{p - lo, i - lo, s.reuseBytes[e]});
            }
        }
    }
    return view;
}

DualModeAllocator::DualModeAllocator(const CostModel &cost,
                                     AllocatorOptions options)
    : cost_(&cost), options_(options)
{
}

DualModeAllocator::Needs
DualModeAllocator::needsForTarget(const OpWorkload &w, const OpConstants &c,
                                  Cycles t) const
{
    Needs n;
    Cycles budget = t - c.fixed;
    if (budget <= 0)
        return n;
    if (w.macs <= 0) {
        n.feasible = true;
        n.computeArrays = w.weightTiles;
        return n;
    }
    double rate_needed = static_cast<double>(w.macs)
                       / static_cast<double>(budget);

    // Compute side: smallest duplication multiple reaching the rate.
    cmswitch_assert(c.perBundle > 0.0, "zero base compute rate");
    s64 dup = static_cast<s64>(
        std::ceil(rate_needed / c.perBundle - kRateEps));
    dup = std::max<s64>(1, dup);
    if (dup > c.dupCap)
        return n;
    n.computeArrays = dup * w.weightTiles;

    // Memory side: Eq. 10's M term, inverted for the array count.
    if (c.memoryFloor + kRateEps >= rate_needed) {
        n.memoryArrays = 0;
    } else {
        if (!options_.allowMemoryMode)
            return n;
        double bw_needed = rate_needed
                         / std::max(w.aiMacsPerByte, kRateEps);
        s64 mem = static_cast<s64>(std::ceil(
            (bw_needed - c.dmainBw) / cost_->chip().internalBwPerArray
            - kRateEps));
        mem = std::max<s64>(0, mem);
        if (mem > c.maxMemory)
            return n; // M saturates below the needed rate
        n.memoryArrays = mem;
    }
    n.feasible = true;
    return n;
}

const s64 *
DualModeAllocator::CallState::memoFind() const
{
    const std::size_t width = needs.size();
    for (std::size_t m = 0; m < memoReuse.size(); ++m) {
        const s64 *key = memoKeys.data() + m * width;
        std::size_t i = 0;
        while (i < width && key[i] == needs[i].memoryArrays)
            ++i;
        if (i == width)
            return &memoReuse[m];
    }
    return nullptr;
}

void
DualModeAllocator::CallState::memoStore(s64 reuse)
{
    for (const Needs &n : needs)
        memoKeys.push_back(n.memoryArrays);
    memoReuse.push_back(reuse);
}

DualModeAllocator::CallState
DualModeAllocator::prepare(const SegmentView &segment) const
{
    // Target-independent inputs every probe reads: the per-op constants
    // of needsForTarget() and the per-edge reuse caps.
    const std::size_t n_ops = segment.ops.size();
    CallState call;
    call.shares = CostModel::dmainShares(segment.ops);
    call.consts.resize(n_ops);
    for (std::size_t i = 0; i < n_ops; ++i) {
        const OpWorkload &w = *segment.ops[i];
        OpConstants &c = call.consts[i];
        c.fixed = cost_->fixedOverhead(w);
        if (w.macs > 0) // the only ops needsForTarget() reads it for
            c.perBundle = cost_->computeRate(w, w.weightTiles);
        c.memoryFloor = cost_->memoryRate(w, 0, call.shares[i]);
        c.dmainBw = call.shares[i] * cost_->chip().dMain();
        c.maxMemory = cost_->maxUsefulMemoryArrays(w);
        c.dupCap = options_.allowDuplication
                 ? std::max<s64>(1, w.movingRows)
                 : 1;
    }
    const s64 array_bytes = cost_->chip().arrayMemoryBytes();
    for (const SegmentView::Edge &e : segment.edges)
        call.edgeCaps.push_back(ceilDiv(e.bytes, array_bytes));
    call.needs.resize(n_ops);
    call.memIn.resize(n_ops);
    call.memOut.resize(n_ops);
    call.pool.resize(n_ops);
    call.incident.resize(n_ops);
    return call;
}

bool
DualModeAllocator::needsAt(const SegmentView &segment, Cycles t,
                           CallState *call, s64 *total) const
{
    *total = 0;
    for (std::size_t i = 0; i < segment.ops.size(); ++i) {
        Needs &n = call->needs[i];
        n = needsForTarget(*segment.ops[i], call->consts[i], t);
        if (!n.feasible)
            return false;
        *total += n.computeArrays + n.memoryArrays;
    }
    return true;
}

bool
DualModeAllocator::solvesExactly(const SegmentView &segment) const
{
    // Large segments fall back to a greedy pool assignment (the
    // instances the MIP certifies in the tests are exactly the small
    // ones).
    return !segment.edges.empty() && options_.allowMemoryMode
        && static_cast<s64>(segment.edges.size())
                   + 2 * static_cast<s64>(segment.ops.size())
               <= 40;
}

s64
DualModeAllocator::reuseUpperBound(const SegmentView &segment,
                                   CallState *call) const
{
    // An edge reuses at most its cap and the memory arrays of either
    // end. Summed per edge, that ignores pool sharing; summed per op
    // and clipped to the op's memory arrays, it is the vertex bound,
    // which counts each edge at both ends.
    const std::vector<Needs> &needs = call->needs;
    std::vector<s64> &incident = call->incident;
    std::fill(incident.begin(), incident.end(), 0);
    s64 per_edge = 0;
    for (std::size_t e = 0; e < segment.edges.size(); ++e) {
        const auto from = static_cast<std::size_t>(segment.edges[e].from);
        const auto to = static_cast<std::size_t>(segment.edges[e].to);
        const s64 bound = std::min({call->edgeCaps[e],
                                    needs[from].memoryArrays,
                                    needs[to].memoryArrays});
        per_edge += bound;
        incident[from] += bound;
        incident[to] += bound;
    }
    s64 per_op = 0;
    for (std::size_t i = 0; i < needs.size(); ++i)
        per_op += std::min(needs[i].memoryArrays, incident[i]);
    return std::min(per_edge, per_op / 2);
}

s64
DualModeAllocator::greedyReuse(const SegmentView &segment,
                               CallState *call) const
{
    // Each op exposes its memory arrays as a shared in/out pool; edges
    // claim from both endpoint pools. Any such claim is a feasible
    // point of exactReuse()'s MIP.
    std::vector<s64> &pool = call->pool;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        pool[i] = call->needs[i].memoryArrays;
        call->memIn[i] = 0;
        call->memOut[i] = 0;
    }
    s64 reuse = 0;
    for (std::size_t e = 0; e < segment.edges.size(); ++e) {
        const auto from = static_cast<std::size_t>(segment.edges[e].from);
        const auto to = static_cast<std::size_t>(segment.edges[e].to);
        s64 r = std::min({pool[from], pool[to], call->edgeCaps[e]});
        reuse += r;
        pool[from] -= r;
        pool[to] -= r;
        call->memOut[from] += r;
        call->memIn[to] += r;
    }
    return reuse;
}

s64
DualModeAllocator::exactReuse(const SegmentView &segment, CallState *call,
                              LpWarmStart *warm) const
{
    // Each op's memory arrays split freely between input and output
    // buffer roles (Eq. 5: a given array plays exactly one role), so
    // the split variables join the MIP.
    const s64 n_ops = static_cast<s64>(segment.ops.size());
    const std::size_t n_edges = segment.edges.size();
    const std::vector<Needs> &needs = call->needs;
    LinearModel mip;
    std::vector<VarId> in_vars, out_vars, edge_vars;
    for (s64 i = 0; i < n_ops; ++i) {
        double mem = static_cast<double>(
            needs[static_cast<std::size_t>(i)].memoryArrays);
        in_vars.push_back(mip.addVar("min", 0.0, mem, VarType::kInteger));
        out_vars.push_back(mip.addVar("mout", 0.0, mem, VarType::kInteger));
        LinearExpr split;
        split.add(in_vars.back(), 1.0).add(out_vars.back(), 1.0);
        mip.addConstraint(split, Rel::kEq, mem);
    }
    for (std::size_t e = 0; e < n_edges; ++e) {
        edge_vars.push_back(
            mip.addVar("r", 0.0, static_cast<double>(call->edgeCaps[e]),
                       VarType::kInteger));
    }
    for (s64 i = 0; i < n_ops; ++i) {
        LinearExpr out_sum, in_sum;
        bool has_out = false, has_in = false;
        for (std::size_t e = 0; e < n_edges; ++e) {
            if (segment.edges[e].from == i) {
                out_sum.add(edge_vars[e], 1.0);
                has_out = true;
            }
            if (segment.edges[e].to == i) {
                in_sum.add(edge_vars[e], 1.0);
                has_in = true;
            }
        }
        if (has_out) {
            out_sum.add(out_vars[static_cast<std::size_t>(i)], -1.0);
            mip.addConstraint(out_sum, Rel::kLe, 0.0);
        }
        if (has_in) {
            in_sum.add(in_vars[static_cast<std::size_t>(i)], -1.0);
            mip.addConstraint(in_sum, Rel::kLe, 0.0);
        }
    }
    LinearExpr objective;
    for (VarId v : edge_vars)
        objective.add(v, 1.0);
    mip.setObjective(objective, Sense::kMaximize);
    MipOptions mip_options;
    mip_options.warmStart = warm;
    MipResult res = solveMip(mip, mip_options);
    cmswitch_assert(res.status == SolveStatus::kOptimal,
                    "reuse MIP must be feasible");
    for (s64 i = 0; i < n_ops; ++i) {
        const auto op = static_cast<std::size_t>(i);
        call->memIn[op] = static_cast<s64>(std::llround(
            res.values[static_cast<std::size_t>(in_vars[op])]));
        call->memOut[op] = needs[op].memoryArrays - call->memIn[op];
    }
    return static_cast<s64>(std::llround(res.objective));
}

s64
DualModeAllocator::pricedReuse(const SegmentView &segment,
                               CallState *call) const
{
    // The optimum the filling solve reaches, by the first rule that
    // decides it. Every rule is exact, so the priced totals are the
    // filled ones.
    if (segment.edges.empty() || !options_.allowMemoryMode)
        return 0;
    const s64 greedy = greedyReuse(segment, call);
    if (!solvesExactly(segment))
        return greedy; // what the fill computes for a wide segment
    if (greedy == reuseUpperBound(segment, call))
        return greedy;
    if (const s64 *memo = call->memoFind())
        return *memo;
    return exactReuse(segment, call, &call->warm);
}

void
DualModeAllocator::writeAllocation(const SegmentView &segment, s64 reuse,
                                   const CallState &call,
                                   SegmentAllocation *out) const
{
    const std::size_t n_ops = segment.ops.size();
    out->allocs.clear();
    for (std::size_t i = 0; i < n_ops; ++i) {
        OpAllocation a;
        a.computeArrays = call.needs[i].computeArrays;
        a.memInArrays = call.memIn[i];
        a.memOutArrays = call.memOut[i];
        out->allocs.push_back(a);
    }
    out->reusedArrays = reuse;
    out->plan.computeArrays = 0;
    out->plan.memoryArrays = 0;
    for (const OpAllocation &a : out->allocs) {
        out->plan.computeArrays += a.computeArrays;
        out->plan.memoryArrays += a.memoryArrays();
    }
    out->plan.memoryArrays -= reuse;
    // opLatency reads only the memory-array total of an op, never its
    // split, so a priced allocation has its filled latency.
    Cycles worst = 0;
    for (std::size_t i = 0; i < n_ops; ++i) {
        worst = std::max(worst, cost_->opLatency(*segment.ops[i],
                                                 out->allocs[i],
                                                 call.shares[i]));
    }
    out->intraLatency = worst;
}

bool
DualModeAllocator::tryTarget(const SegmentView &segment, Cycles t,
                             SegmentAllocation *out, CallState *call) const
{
    if (out == nullptr)
        obs::count(obs::Met::kAllocProbes);
    obs::Span probeSpan(out == nullptr ? "alloc.probe" : "alloc.fill",
                        "allocator");
    probeSpan.arg("target", t);
    const s64 n_cim = cost_->chip().numSwitchArrays;
    s64 total = 0;
    if (!needsAt(segment, t, call, &total))
        return false;

    // Boolean-only probes (the latency bisection passes out ==
    // nullptr) only need to know whether the packed segment fits
    // (Eq. 8); the reuse bounds usually decide that without the exact
    // maximisation below. Both are conservative, so a probe answered
    // here returns exactly what the exact solve would, and inconclusive
    // probes fall through to it. Plans are untouched: the
    // allocation-filling call always runs the exact solve.
    const bool fast_probe = out == nullptr && !options_.referenceSearch;
    const bool reuse_possible =
        !segment.edges.empty() && options_.allowMemoryMode;
    const bool exact = solvesExactly(segment);
    if (fast_probe) {
        if (total <= n_cim) {
            obs::count(obs::Met::kAllocProbeShortcuts);
            return true; // fits with zero reuse; reuse only helps
        }
        if (!reuse_possible) {
            obs::count(obs::Met::kAllocProbeShortcuts);
            return false; // no reuse possible, and total > n_cim
        }
        if (total - reuseUpperBound(segment, call) > n_cim) {
            obs::count(obs::Met::kAllocProbeShortcuts);
            return false;
        }
        if (total - greedyReuse(segment, call) <= n_cim) {
            obs::count(obs::Met::kAllocProbeShortcuts);
            return true;
        }
        // Inconclusive. With the edges fixed for the call, the
        // memory-array vector is the whole MIP instance, and only its
        // optimum decides a probe: take it from the memo if this call
        // solved the same vector before.
        if (exact) {
            if (const s64 *memo = call->memoFind())
                return total - *memo <= n_cim;
        }
    }

    // Maximise Eq. 6 reuse so the packed segment fits (Eq. 8).
    s64 reuse_total = 0;
    if (!reuse_possible) {
        for (std::size_t i = 0; i < segment.ops.size(); ++i) {
            splitMemory(*segment.ops[i], call->needs[i].memoryArrays,
                        &call->memIn[i], &call->memOut[i]);
        }
    } else if (exact) {
        // Warm pivoting only on boolean probes: the filling solve must
        // replay the exact cold pivot path so the chosen reuse splits
        // stay bit-identical to the reference mode.
        reuse_total = exactReuse(segment, call,
                                 fast_probe ? &call->warm : nullptr);
        if (fast_probe)
            call->memoStore(reuse_total);
    } else {
        reuse_total = greedyReuse(segment, call);
        // Remaining pool arrays: split by byte ratio.
        for (std::size_t i = 0; i < segment.ops.size(); ++i) {
            s64 mi, mo;
            splitMemory(*segment.ops[i], call->pool[i], &mi, &mo);
            call->memIn[i] += mi;
            call->memOut[i] += mo;
        }
    }

    if (total - reuse_total > n_cim)
        return false;
    if (out)
        writeAllocation(segment, reuse_total, *call, out);
    return true;
}

SegmentAllocation
DualModeAllocator::allocate(const SegmentView &segment) const
{
    return search(segment, true);
}

SegmentAllocation
DualModeAllocator::price(const SegmentView &segment) const
{
    // The reference search fills eagerly, as it did before the price
    // step existed.
    return search(segment, options_.referenceSearch);
}

void
DualModeAllocator::fill(const SegmentView &segment,
                        SegmentAllocation *alloc) const
{
    if (!alloc->needsFill())
        return;
    CallState call = prepare(segment);
    const s64 priced_reuse = alloc->reusedArrays;
    bool ok = tryTarget(segment, alloc->fillTarget, alloc, &call);
    cmswitch_assert(ok && alloc->reusedArrays == priced_reuse,
                    "the filling solve must reach the priced reuse");
    alloc->fillTarget = 0;
}

SegmentAllocation
DualModeAllocator::search(const SegmentView &segment, bool fill) const
{
    obs::ScopedPhase phase(obs::Hist::kPhaseAllocate, "alloc.allocate",
                           "allocator");
    phase.arg("ops", static_cast<s64>(segment.ops.size()));
    obs::count(obs::Met::kAllocRuns);
    SegmentAllocation result;
    if (segment.ops.empty())
        return result;

    s64 tiles_total = 0;
    for (const OpWorkload *w : segment.ops)
        tiles_total += w->weightTiles;
    if (tiles_total > cost_->chip().numSwitchArrays)
        return result; // cannot even hold one copy of the weights

    if (!options_.pipelined)
        return allocateSerial(segment);

    // Upper bound: minimal allocation (one weight copy, no memory).
    const std::size_t n_ops = segment.ops.size();
    CallState call = prepare(segment);
    Cycles ub = 0;
    for (std::size_t i = 0; i < n_ops; ++i) {
        OpAllocation minimal;
        minimal.computeArrays = segment.ops[i]->weightTiles;
        ub = std::max(ub, cost_->opLatency(*segment.ops[i], minimal,
                                           call.shares[i]));
    }
    cmswitch_assert(ub < kInfCycles, "minimal allocation must be finite");

    Cycles lo = 1, hi = ub;
    cmswitch_assert(tryTarget(segment, ub, nullptr, &call),
                    "upper bound must be feasible");

    while (lo < hi) {
        obs::count(obs::Met::kAllocBisectionIters);
        Cycles mid = lo + (hi - lo) / 2;
        if (tryTarget(segment, mid, nullptr, &call))
            hi = mid;
        else
            lo = mid + 1;
    }
    if (fill) {
        bool ok = tryTarget(segment, hi, &result, &call);
        cmswitch_assert(ok, "bisection result must be feasible");
        return result;
    }

    // Price step: the totals the fill reaches at hi, with each op's
    // memory arrays left unsplit in memOutArrays.
    s64 total = 0;
    bool ok = needsAt(segment, hi, &call, &total);
    cmswitch_assert(ok, "bisection result must be feasible");
    const s64 reuse = pricedReuse(segment, &call);
    cmswitch_assert(total - reuse <= cost_->chip().numSwitchArrays,
                    "bisection result must fit the chip");
    for (std::size_t i = 0; i < n_ops; ++i) {
        call.memIn[i] = 0;
        call.memOut[i] = call.needs[i].memoryArrays;
    }
    writeAllocation(segment, reuse, call, &result);
    result.fillTarget = hi;
    return result;
}

SegmentAllocation
DualModeAllocator::allocateSerial(const SegmentView &segment) const
{
    const s64 n_ops = static_cast<s64>(segment.ops.size());
    const s64 n_cim = cost_->chip().numSwitchArrays;

    SegmentAllocation result;
    result.allocs.assign(static_cast<std::size_t>(n_ops), OpAllocation{});
    s64 used = 0;
    for (s64 i = 0; i < n_ops; ++i) {
        result.allocs[static_cast<std::size_t>(i)].computeArrays =
            segment.ops[static_cast<std::size_t>(i)]->weightTiles;
        used += segment.ops[static_cast<std::size_t>(i)]->weightTiles;
    }
    if (used > n_cim)
        return SegmentAllocation{};

    auto latency_of = [&](s64 i) {
        return cost_->opLatency(*segment.ops[static_cast<std::size_t>(i)],
                                result.allocs[static_cast<std::size_t>(i)]);
    };

    // Greedy: repeatedly spend arrays where they cut the most serial
    // latency (duplication bundles or +1 memory array).
    while (used < n_cim) {
        s64 best_op = -1;
        bool best_is_mem = false;
        double best_gain_per_array = 0.0;
        for (s64 i = 0; i < n_ops; ++i) {
            const OpWorkload &w = *segment.ops[static_cast<std::size_t>(i)];
            OpAllocation &a = result.allocs[static_cast<std::size_t>(i)];
            Cycles cur = latency_of(i);
            if (options_.allowDuplication
                && a.computeArrays + w.weightTiles <= n_cim - used
                                                      + a.computeArrays) {
                OpAllocation trial = a;
                trial.computeArrays += w.weightTiles;
                if (used + w.weightTiles <= n_cim) {
                    Cycles next = cost_->opLatency(w, trial);
                    double gain = static_cast<double>(cur - next)
                                / static_cast<double>(w.weightTiles);
                    if (gain > best_gain_per_array) {
                        best_gain_per_array = gain;
                        best_op = i;
                        best_is_mem = false;
                    }
                }
            }
            if (options_.allowMemoryMode && used + 1 <= n_cim) {
                OpAllocation trial = a;
                trial.memInArrays += 1;
                Cycles next = cost_->opLatency(w, trial);
                double gain = static_cast<double>(cur - next);
                if (gain > best_gain_per_array) {
                    best_gain_per_array = gain;
                    best_op = i;
                    best_is_mem = true;
                }
            }
        }
        if (best_op < 0 || best_gain_per_array <= 0.0)
            break;
        if (best_is_mem) {
            result.allocs[static_cast<std::size_t>(best_op)].memInArrays += 1;
            used += 1;
        } else {
            s64 tiles =
                segment.ops[static_cast<std::size_t>(best_op)]->weightTiles;
            result.allocs[static_cast<std::size_t>(best_op)].computeArrays +=
                tiles;
            used += tiles;
        }
    }

    Cycles total = 0;
    result.plan = ModePlan{};
    for (s64 i = 0; i < n_ops; ++i) {
        total += latency_of(i);
        result.plan.computeArrays +=
            result.allocs[static_cast<std::size_t>(i)].computeArrays;
        result.plan.memoryArrays +=
            result.allocs[static_cast<std::size_t>(i)].memoryArrays();
    }
    result.intraLatency = total;
    return result;
}

SegmentAllocation
DualModeAllocator::allocateExhaustive(const SegmentView &segment) const
{
    const s64 n_ops = static_cast<s64>(segment.ops.size());
    const s64 n_cim = cost_->chip().numSwitchArrays;
    cmswitch_assert(n_ops <= 3 && n_cim <= 16,
                    "exhaustive search is for tiny test segments only");

    SegmentAllocation best;
    std::vector<OpAllocation> current(static_cast<std::size_t>(n_ops));

    // Greedy max reuse for a fixed allocation (optimal on chains).
    auto reuse_of = [&]() {
        s64 array_bytes = cost_->chip().arrayMemoryBytes();
        std::vector<s64> out_left(static_cast<std::size_t>(n_ops));
        std::vector<s64> in_left(static_cast<std::size_t>(n_ops));
        for (s64 i = 0; i < n_ops; ++i) {
            out_left[static_cast<std::size_t>(i)] =
                current[static_cast<std::size_t>(i)].memOutArrays;
            in_left[static_cast<std::size_t>(i)] =
                current[static_cast<std::size_t>(i)].memInArrays;
        }
        s64 total = 0;
        for (const SegmentView::Edge &e : segment.edges) {
            s64 r = std::min({out_left[static_cast<std::size_t>(e.from)],
                              in_left[static_cast<std::size_t>(e.to)],
                              ceilDiv(e.bytes, array_bytes)});
            total += r;
            out_left[static_cast<std::size_t>(e.from)] -= r;
            in_left[static_cast<std::size_t>(e.to)] -= r;
        }
        return total;
    };

    std::vector<double> shares = CostModel::dmainShares(segment.ops);

    auto consider = [&]() {
        s64 used = 0;
        for (s64 i = 0; i < n_ops; ++i)
            used += current[static_cast<std::size_t>(i)].total();
        s64 reuse = options_.allowMemoryMode ? reuse_of() : 0;
        if (used - reuse > n_cim)
            return;
        Cycles worst = 0;
        for (s64 i = 0; i < n_ops; ++i) {
            worst = std::max(
                worst,
                cost_->opLatency(*segment.ops[static_cast<std::size_t>(i)],
                                 current[static_cast<std::size_t>(i)],
                                 shares[static_cast<std::size_t>(i)]));
        }
        bool better = worst < best.intraLatency;
        if (better) {
            best.allocs = current;
            best.intraLatency = worst;
            best.reusedArrays = reuse;
            best.plan = ModePlan{};
            for (s64 i = 0; i < n_ops; ++i) {
                best.plan.computeArrays +=
                    current[static_cast<std::size_t>(i)].computeArrays;
                best.plan.memoryArrays +=
                    current[static_cast<std::size_t>(i)].memoryArrays();
            }
            best.plan.memoryArrays -= reuse;
        }
    };

    // Recursive enumeration over (dup multiple, memIn, memOut) per op.
    auto recurse = [&](auto &&self, s64 i) -> void {
        if (i == n_ops) {
            consider();
            return;
        }
        const OpWorkload &w = *segment.ops[static_cast<std::size_t>(i)];
        s64 dup_cap = options_.allowDuplication
                    ? std::min(std::max<s64>(1, w.movingRows),
                               n_cim / std::max<s64>(1, w.weightTiles))
                    : 1;
        s64 mem_cap = options_.allowMemoryMode
                    ? std::min<s64>(n_cim, cost_->maxUsefulMemoryArrays(w))
                    : 0;
        for (s64 dup = 1; dup <= std::max<s64>(1, dup_cap); ++dup) {
            for (s64 mi = 0; mi <= mem_cap; ++mi) {
                for (s64 mo = 0; mi + mo <= mem_cap; ++mo) {
                    current[static_cast<std::size_t>(i)] =
                        OpAllocation{dup * w.weightTiles, mi, mo};
                    self(self, i + 1);
                }
            }
        }
    };
    recurse(recurse, 0);
    return best;
}

} // namespace cmswitch
