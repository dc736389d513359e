#include "sim/reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/hash.hpp"
#include "support/logging.hpp"
#include "support/random.hpp"

namespace cmswitch {

namespace {

/** Deterministic embedding entry so no giant table is materialised. */
s32
embeddingValue(s32 token, s64 dim)
{
    return ((static_cast<s64>(token) * 31 + dim * 7) % 17) - 8;
}

std::vector<s32> &
valuesOf(TensorValues &values, TensorId id)
{
    auto it = values.find(id);
    cmswitch_assert(it != values.end(), "tensor ", id, " has no value yet");
    return it->second;
}

std::vector<s32> &
makeOutput(const Graph &graph, TensorValues &values, TensorId id)
{
    auto [it, inserted] = values.emplace(
        id, std::vector<s32>(
                static_cast<std::size_t>(
                    graph.tensor(id).shape.numElements()),
                0));
    cmswitch_assert(inserted, "tensor computed twice: ",
                    graph.tensor(id).name);
    return it->second;
}

s32
clampInt8(double v)
{
    return static_cast<s32>(
        std::clamp(std::llround(v), -128ll, 127ll));
}

} // namespace

s32
requantize(s64 accumulator)
{
    s64 shifted = accumulator >> 6;
    return static_cast<s32>(std::clamp<s64>(shifted, -128, 127));
}

TensorValues
seedTensors(const Graph &graph, u64 seed)
{
    TensorValues values;
    for (TensorId t = 0; t < graph.numTensors(); ++t) {
        const TensorDesc &desc = graph.tensor(t);
        if (graph.producerOf(t).has_value())
            continue; // produced during execution
        // FNV-1a, not std::hash: every standard library must seed the
        // same inputs.
        Rng rng(seed ^ fnv1a64(desc.name));
        std::vector<s32> data(
            static_cast<std::size_t>(desc.shape.numElements()));
        bool is_ids = desc.dtype == DType::kInt32;
        for (s32 &v : data)
            v = static_cast<s32>(is_ids ? rng.nextInt(0, 255)
                                        : rng.nextInt(-8, 7));
        values.emplace(t, std::move(data));
    }
    return values;
}

void
executeCimOpDirect(const Graph &graph, const Operator &op,
                   TensorValues &values)
{
    switch (op.kind) {
      case OpKind::kMatMul:
      case OpKind::kDynMatMul: {
        const std::vector<s32> &a = valuesOf(values, op.inputs[0]);
        const std::vector<s32> &b = valuesOf(values, op.inputs[1]);
        std::vector<s32> &out = makeOutput(graph, values, op.outputs[0]);
        const Shape &bs = graph.tensor(op.inputs[1]).shape;
        s64 n = bs.dim(bs.rank() - 2);
        s64 k = bs.lastDim();
        s64 copies = bs.numElements() / (n * k);
        s64 m_total = static_cast<s64>(a.size()) / n;
        s64 m_per_copy = m_total / copies;
        cmswitch_assert(m_per_copy * copies == m_total,
                        "copy mismatch in ", op.name);
        for (s64 c = 0; c < copies; ++c) {
            const s32 *ac = a.data() + c * m_per_copy * n;
            const s32 *bc = b.data() + c * n * k;
            s32 *oc = out.data() + c * m_per_copy * k;
            for (s64 m = 0; m < m_per_copy; ++m) {
                for (s64 col = 0; col < k; ++col) {
                    s64 acc = 0;
                    for (s64 r = 0; r < n; ++r)
                        acc += static_cast<s64>(ac[m * n + r])
                             * static_cast<s64>(bc[r * k + col]);
                    oc[m * k + col] = requantize(acc);
                }
            }
        }
        break;
      }
      case OpKind::kConv2d:
      case OpKind::kDepthwiseConv2d: {
        const std::vector<s32> &x = valuesOf(values, op.inputs[0]);
        const std::vector<s32> &w = valuesOf(values, op.inputs[1]);
        std::vector<s32> &out = makeOutput(graph, values, op.outputs[0]);
        const Shape &xs = graph.tensor(op.inputs[0]).shape;
        const Shape &os = graph.tensor(op.outputs[0]).shape;
        s64 batch = xs.dim(0), in_c = xs.dim(1), in_h = xs.dim(2),
            in_w = xs.dim(3);
        s64 out_c = os.dim(1), out_h = os.dim(2), out_w = os.dim(3);
        bool depthwise = op.kind == OpKind::kDepthwiseConv2d;
        s64 cpg = depthwise ? 1 : in_c / op.conv.groups; // channels/group
        s64 opg = depthwise ? 1 : out_c / op.conv.groups;
        for (s64 nb = 0; nb < batch; ++nb) {
            for (s64 oc = 0; oc < out_c; ++oc) {
                s64 group = depthwise ? oc : oc / opg;
                for (s64 oy = 0; oy < out_h; ++oy) {
                    for (s64 ox = 0; ox < out_w; ++ox) {
                        s64 acc = 0;
                        for (s64 ic = 0; ic < cpg; ++ic) {
                            s64 in_channel = group * cpg + ic;
                            if (depthwise)
                                in_channel = oc;
                            for (s64 ky = 0; ky < op.conv.kernelH; ++ky) {
                                for (s64 kx = 0; kx < op.conv.kernelW; ++kx) {
                                    s64 iy = oy * op.conv.strideH + ky
                                           - op.conv.padH;
                                    s64 ix = ox * op.conv.strideW + kx
                                           - op.conv.padW;
                                    if (iy < 0 || iy >= in_h || ix < 0
                                        || ix >= in_w) {
                                        continue;
                                    }
                                    s64 xi = ((nb * in_c + in_channel) * in_h
                                              + iy) * in_w + ix;
                                    s64 wi = ((oc * cpg + ic)
                                              * op.conv.kernelH + ky)
                                             * op.conv.kernelW + kx;
                                    acc += static_cast<s64>(
                                               x[static_cast<std::size_t>(xi)])
                                         * static_cast<s64>(
                                               w[static_cast<std::size_t>(wi)]);
                                }
                            }
                        }
                        s64 oi = ((nb * out_c + oc) * out_h + oy) * out_w + ox;
                        out[static_cast<std::size_t>(oi)] = requantize(acc);
                    }
                }
            }
        }
        break;
      }
      default:
        cmswitch_panic("not a CIM op: ", op.name);
    }
}

void
executeFuOp(const Graph &graph, const Operator &op, TensorValues &values)
{
    switch (op.kind) {
      case OpKind::kActivation: {
        const std::vector<s32> &x = valuesOf(values, op.inputs[0]);
        std::vector<s32> &out = makeOutput(graph, values, op.outputs[0]);
        for (std::size_t i = 0; i < x.size(); ++i) {
            double v = static_cast<double>(x[i]);
            double y;
            if (op.activationName == "relu") {
                y = std::max(0.0, v);
            } else if (op.activationName == "gelu") {
                y = 0.5 * v
                  * (1.0 + std::tanh(0.7978845608
                                     * (v + 0.044715 * v * v * v)));
            } else if (op.activationName == "silu") {
                y = v / (1.0 + std::exp(-v / 16.0));
            } else {
                y = v;
            }
            out[i] = clampInt8(y);
        }
        break;
      }
      case OpKind::kSoftmax: {
        const std::vector<s32> &x = valuesOf(values, op.inputs[0]);
        std::vector<s32> &out = makeOutput(graph, values, op.outputs[0]);
        s64 row = graph.tensor(op.inputs[0]).shape.lastDim();
        s64 rows = static_cast<s64>(x.size()) / row;
        for (s64 r = 0; r < rows; ++r) {
            const s32 *xr = x.data() + r * row;
            s32 *orow = out.data() + r * row;
            s32 mx = *std::max_element(xr, xr + row);
            double denom = 0.0;
            for (s64 i = 0; i < row; ++i)
                denom += std::exp(static_cast<double>(xr[i] - mx) / 8.0);
            for (s64 i = 0; i < row; ++i) {
                double p = std::exp(static_cast<double>(xr[i] - mx) / 8.0)
                         / denom;
                orow[i] = clampInt8(p * 127.0);
            }
        }
        break;
      }
      case OpKind::kLayerNorm: {
        const std::vector<s32> &x = valuesOf(values, op.inputs[0]);
        std::vector<s32> &out = makeOutput(graph, values, op.outputs[0]);
        s64 row = graph.tensor(op.inputs[0]).shape.lastDim();
        s64 rows = static_cast<s64>(x.size()) / row;
        for (s64 r = 0; r < rows; ++r) {
            const s32 *xr = x.data() + r * row;
            s32 *orow = out.data() + r * row;
            double mean = 0.0;
            for (s64 i = 0; i < row; ++i)
                mean += xr[i];
            mean /= static_cast<double>(row);
            double var = 0.0;
            for (s64 i = 0; i < row; ++i)
                var += (xr[i] - mean) * (xr[i] - mean);
            var /= static_cast<double>(row);
            double scale = 16.0 / std::sqrt(var + 1.0);
            for (s64 i = 0; i < row; ++i)
                orow[i] = clampInt8((xr[i] - mean) * scale);
        }
        break;
      }
      case OpKind::kElementwiseAdd: {
        const std::vector<s32> &a = valuesOf(values, op.inputs[0]);
        const std::vector<s32> &b = valuesOf(values, op.inputs[1]);
        std::vector<s32> &out = makeOutput(graph, values, op.outputs[0]);
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = clampInt8(static_cast<double>(a[i]) + b[i]);
        break;
      }
      case OpKind::kElementwiseMul: {
        const std::vector<s32> &a = valuesOf(values, op.inputs[0]);
        const std::vector<s32> &b = valuesOf(values, op.inputs[1]);
        std::vector<s32> &out = makeOutput(graph, values, op.outputs[0]);
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = requantize(static_cast<s64>(a[i]) * b[i]);
        break;
      }
      case OpKind::kPool: {
        const std::vector<s32> &x = valuesOf(values, op.inputs[0]);
        std::vector<s32> &out = makeOutput(graph, values, op.outputs[0]);
        const Shape &xs = graph.tensor(op.inputs[0]).shape;
        const Shape &os = graph.tensor(op.outputs[0]).shape;
        s64 batch = xs.dim(0), ch = xs.dim(1), in_h = xs.dim(2),
            in_w = xs.dim(3);
        s64 out_h = os.dim(2), out_w = os.dim(3);
        bool global = op.conv.kernelH == in_h && op.conv.kernelW == in_w;
        for (s64 nb = 0; nb < batch; ++nb) {
            for (s64 c = 0; c < ch; ++c) {
                for (s64 oy = 0; oy < out_h; ++oy) {
                    for (s64 ox = 0; ox < out_w; ++ox) {
                        s64 acc = global ? 0
                                         : std::numeric_limits<s32>::min();
                        s64 count = 0;
                        for (s64 ky = 0; ky < op.conv.kernelH; ++ky) {
                            for (s64 kx = 0; kx < op.conv.kernelW; ++kx) {
                                s64 iy = oy * op.conv.strideH + ky;
                                s64 ix = ox * op.conv.strideW + kx;
                                if (iy >= in_h || ix >= in_w)
                                    continue;
                                s64 xi = ((nb * ch + c) * in_h + iy) * in_w
                                       + ix;
                                s32 v = x[static_cast<std::size_t>(xi)];
                                if (global)
                                    acc += v;
                                else
                                    acc = std::max<s64>(acc, v);
                                ++count;
                            }
                        }
                        s64 oi = ((nb * ch + c) * out_h + oy) * out_w + ox;
                        out[static_cast<std::size_t>(oi)] =
                            static_cast<s32>(global ? acc / count : acc);
                    }
                }
            }
        }
        break;
      }
      case OpKind::kEmbedding: {
        const std::vector<s32> &ids = valuesOf(values, op.inputs[0]);
        std::vector<s32> &out = makeOutput(graph, values, op.outputs[0]);
        s64 dim = graph.tensor(op.outputs[0]).shape.lastDim();
        for (std::size_t t = 0; t < ids.size(); ++t)
            for (s64 d = 0; d < dim; ++d)
                out[t * static_cast<std::size_t>(dim)
                    + static_cast<std::size_t>(d)] =
                    embeddingValue(ids[t], d);
        break;
      }
      case OpKind::kReshape: {
        const std::vector<s32> &x = valuesOf(values, op.inputs[0]);
        std::vector<s32> &out = makeOutput(graph, values, op.outputs[0]);
        cmswitch_assert(out.size() <= x.size(),
                        "reshape cannot grow data: ", op.name);
        std::copy(x.begin(), x.begin() + static_cast<s64>(out.size()),
                  out.begin());
        break;
      }
      case OpKind::kConcat: {
        std::vector<s32> &out = makeOutput(graph, values, op.outputs[0]);
        std::size_t cursor = 0;
        for (TensorId in : op.inputs) {
            const std::vector<s32> &x = valuesOf(values, in);
            cmswitch_assert(cursor + x.size() <= out.size(),
                            "concat overflow: ", op.name);
            std::copy(x.begin(), x.end(), out.begin()
                                          + static_cast<s64>(cursor));
            cursor += x.size();
        }
        break;
      }
      default:
        cmswitch_panic("unhandled FU op kind: ", opKindName(op.kind));
    }
}

void
referenceExecute(const Graph &graph, TensorValues &values)
{
    for (OpId id : graph.topoOrder()) {
        const Operator &op = graph.op(id);
        if (op.isCim())
            executeCimOpDirect(graph, op, values);
        else
            executeFuOp(graph, op, values);
    }
}

} // namespace cmswitch
