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

bool
DualModeAllocator::tryTarget(const SegmentView &segment, Cycles t,
                             SegmentAllocation *out, CallState *call) const
{
    if (out == nullptr)
        obs::count(obs::Met::kAllocProbes);
    obs::Span probeSpan(out == nullptr ? "alloc.probe" : "alloc.fill",
                        "allocator");
    probeSpan.arg("target", t);
    const s64 n_ops = static_cast<s64>(segment.ops.size());
    const s64 n_cim = cost_->chip().numSwitchArrays;
    const std::size_t n_edges = segment.edges.size();
    const std::vector<s64> &caps = call->edgeCaps;

    std::vector<Needs> &needs = call->needs;
    std::vector<s64> &mem_in = call->memIn;
    std::vector<s64> &mem_out = call->memOut;
    s64 total = 0;
    for (s64 i = 0; i < n_ops; ++i) {
        needs[static_cast<std::size_t>(i)] =
            needsForTarget(*segment.ops[static_cast<std::size_t>(i)],
                           call->consts[static_cast<std::size_t>(i)], t);
        if (!needs[static_cast<std::size_t>(i)].feasible)
            return false;
        total += needs[static_cast<std::size_t>(i)].computeArrays
               + needs[static_cast<std::size_t>(i)].memoryArrays;
    }

    // Boolean-only probes (the latency bisection passes out ==
    // nullptr) only need to know whether the packed segment fits
    // (Eq. 8); cheap reuse bounds usually decide that without the
    // exact maximisation below. Both bounds are conservative — the
    // greedy pool assignment is a feasible reuse (lower bound), the
    // per-edge cap sum ignores pool sharing (upper bound) — so a probe
    // answered here returns exactly what the exact solve would, and
    // inconclusive probes fall through to it. Plans are untouched: the
    // allocation-filling call always runs the exact solve.
    const bool fast_probe = out == nullptr && !options_.referenceSearch;
    if (fast_probe) {
        if (total <= n_cim) {
            obs::count(obs::Met::kAllocProbeShortcuts);
            return true; // fits with zero reuse; reuse only helps
        }
        if (segment.edges.empty() || !options_.allowMemoryMode) {
            obs::count(obs::Met::kAllocProbeShortcuts);
            return false; // no reuse possible, and total > n_cim
        }
        s64 reuse_ub = 0;
        for (std::size_t e = 0; e < n_edges; ++e) {
            const SegmentView::Edge &edge = segment.edges[e];
            reuse_ub += std::min(
                {caps[e],
                 needs[static_cast<std::size_t>(edge.from)].memoryArrays,
                 needs[static_cast<std::size_t>(edge.to)].memoryArrays});
        }
        if (total - reuse_ub > n_cim) {
            obs::count(obs::Met::kAllocProbeShortcuts);
            return false;
        }
        s64 reuse_lb = 0;
        std::vector<s64> &probe_pool = call->pool;
        for (s64 i = 0; i < n_ops; ++i) {
            probe_pool[static_cast<std::size_t>(i)] =
                needs[static_cast<std::size_t>(i)].memoryArrays;
        }
        for (std::size_t e = 0; e < n_edges; ++e) {
            const SegmentView::Edge &edge = segment.edges[e];
            s64 r = std::min({probe_pool[static_cast<std::size_t>(edge.from)],
                              probe_pool[static_cast<std::size_t>(edge.to)],
                              caps[e]});
            reuse_lb += r;
            probe_pool[static_cast<std::size_t>(edge.from)] -= r;
            probe_pool[static_cast<std::size_t>(edge.to)] -= r;
        }
        if (total - reuse_lb <= n_cim) {
            obs::count(obs::Met::kAllocProbeShortcuts);
            return true;
        }
        // Inconclusive: fall through to the exact reuse solve.
    }

    // Maximise Eq. 6 reuse so the packed segment fits (Eq. 8). Each
    // op's memory arrays split freely between input and output buffer
    // roles (Eq. 5: a given array plays exactly one role), so the
    // split variables join the MIP. Large segments fall back to a
    // greedy pool assignment (the instances the MIP certifies in the
    // tests are exactly the small ones).
    const bool exact = !segment.edges.empty() && options_.allowMemoryMode
                    && static_cast<s64>(n_edges) + 2 * n_ops <= 40;

    // A fast probe about to run the exact solve first consults this
    // call's memo: with the edges fixed, the memory-array vector is the
    // whole MIP instance, and only its optimum decides a probe.
    if (fast_probe && exact) {
        const std::size_t width = static_cast<std::size_t>(n_ops);
        for (std::size_t m = 0; m < call->memoReuse.size(); ++m) {
            const s64 *key = call->memoKeys.data() + m * width;
            std::size_t i = 0;
            while (i < width && key[i] == needs[i].memoryArrays)
                ++i;
            if (i == width)
                return total - call->memoReuse[m] <= n_cim;
        }
    }

    s64 reuse_total = 0;
    std::fill(mem_in.begin(), mem_in.end(), 0);
    std::fill(mem_out.begin(), mem_out.end(), 0);
    bool need_split = true;
    if (!segment.edges.empty() && options_.allowMemoryMode) {
        if (exact) {
            LinearModel mip;
            std::vector<VarId> in_vars, out_vars, edge_vars;
            for (s64 i = 0; i < n_ops; ++i) {
                double mem = static_cast<double>(
                    needs[static_cast<std::size_t>(i)].memoryArrays);
                in_vars.push_back(
                    mip.addVar("min", 0.0, mem, VarType::kInteger));
                out_vars.push_back(
                    mip.addVar("mout", 0.0, mem, VarType::kInteger));
                LinearExpr split;
                split.add(in_vars.back(), 1.0).add(out_vars.back(), 1.0);
                mip.addConstraint(split, Rel::kEq, mem);
            }
            for (std::size_t e = 0; e < n_edges; ++e) {
                edge_vars.push_back(
                    mip.addVar("r", 0.0, static_cast<double>(caps[e]),
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
            // Warm pivoting only on boolean probes: the filling solve
            // must replay the exact cold pivot path so the chosen
            // reuse splits stay bit-identical to the reference mode.
            mip_options.warmStart = fast_probe ? &call->warm : nullptr;
            MipResult res = solveMip(mip, mip_options);
            cmswitch_assert(res.status == SolveStatus::kOptimal,
                            "reuse MIP must be feasible");
            reuse_total = static_cast<s64>(std::llround(res.objective));
            for (s64 i = 0; i < n_ops; ++i) {
                mem_in[static_cast<std::size_t>(i)] =
                    static_cast<s64>(std::llround(
                        res.values[static_cast<std::size_t>(in_vars
                            [static_cast<std::size_t>(i)])]));
                mem_out[static_cast<std::size_t>(i)] =
                    needs[static_cast<std::size_t>(i)].memoryArrays
                    - mem_in[static_cast<std::size_t>(i)];
            }
            if (fast_probe) {
                for (s64 i = 0; i < n_ops; ++i) {
                    call->memoKeys.push_back(
                        needs[static_cast<std::size_t>(i)].memoryArrays);
                }
                call->memoReuse.push_back(reuse_total);
            }
            need_split = false;
        } else {
            // Greedy pool variant for wide segments: each op exposes
            // its memory arrays as a shared in/out pool; edges claim
            // from both endpoint pools.
            std::vector<s64> &pool = call->pool;
            for (s64 i = 0; i < n_ops; ++i) {
                pool[static_cast<std::size_t>(i)] =
                    needs[static_cast<std::size_t>(i)].memoryArrays;
            }
            for (std::size_t e = 0; e < n_edges; ++e) {
                const SegmentView::Edge &edge = segment.edges[e];
                s64 r = std::min({pool[static_cast<std::size_t>(edge.from)],
                                  pool[static_cast<std::size_t>(edge.to)],
                                  caps[e]});
                reuse_total += r;
                pool[static_cast<std::size_t>(edge.from)] -= r;
                pool[static_cast<std::size_t>(edge.to)] -= r;
                mem_out[static_cast<std::size_t>(edge.from)] += r;
                mem_in[static_cast<std::size_t>(edge.to)] += r;
            }
            // Remaining pool arrays: split by byte ratio.
            for (s64 i = 0; i < n_ops; ++i) {
                s64 mi, mo;
                splitMemory(*segment.ops[static_cast<std::size_t>(i)],
                            pool[static_cast<std::size_t>(i)], &mi, &mo);
                mem_in[static_cast<std::size_t>(i)] += mi;
                mem_out[static_cast<std::size_t>(i)] += mo;
            }
            need_split = false;
        }
    }
    if (need_split) {
        for (s64 i = 0; i < n_ops; ++i) {
            splitMemory(*segment.ops[static_cast<std::size_t>(i)],
                        needs[static_cast<std::size_t>(i)].memoryArrays,
                        &mem_in[static_cast<std::size_t>(i)],
                        &mem_out[static_cast<std::size_t>(i)]);
        }
    }

    if (total - reuse_total > n_cim)
        return false;

    if (out) {
        out->allocs.clear();
        for (s64 i = 0; i < n_ops; ++i) {
            OpAllocation a;
            a.computeArrays = needs[static_cast<std::size_t>(i)].computeArrays;
            a.memInArrays = mem_in[static_cast<std::size_t>(i)];
            a.memOutArrays = mem_out[static_cast<std::size_t>(i)];
            out->allocs.push_back(a);
        }
        out->reusedArrays = reuse_total;
        out->plan.computeArrays = 0;
        out->plan.memoryArrays = 0;
        for (const OpAllocation &a : out->allocs) {
            out->plan.computeArrays += a.computeArrays;
            out->plan.memoryArrays += a.memoryArrays();
        }
        out->plan.memoryArrays -= reuse_total;
        Cycles worst = 0;
        for (s64 i = 0; i < n_ops; ++i) {
            Cycles l = cost_->opLatency(
                *segment.ops[static_cast<std::size_t>(i)],
                out->allocs[static_cast<std::size_t>(i)],
                call->shares[static_cast<std::size_t>(i)]);
            worst = std::max(worst, l);
        }
        out->intraLatency = worst;
    }
    return true;
}

SegmentAllocation
DualModeAllocator::allocate(const SegmentView &segment) const
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
    CallState call;
    call.shares = CostModel::dmainShares(segment.ops);
    Cycles ub = 0;
    for (std::size_t i = 0; i < n_ops; ++i) {
        OpAllocation minimal;
        minimal.computeArrays = segment.ops[i]->weightTiles;
        ub = std::max(ub, cost_->opLatency(*segment.ops[i], minimal,
                                           call.shares[i]));
    }
    cmswitch_assert(ub < kInfCycles, "minimal allocation must be finite");

    // Target-independent inputs every probe reads: the per-op constants
    // of needsForTarget() and the per-edge reuse caps.
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
    bool ok = tryTarget(segment, hi, &result, &call);
    cmswitch_assert(ok, "bisection result must be feasible");
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
