/**
 * @file
 * Tests for the tensor library: shapes, ops, GEMM variants,
 * implicit-GEMM convolution and distance metrics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace cq {
namespace {

TEST(Tensor, ShapeNumel)
{
    EXPECT_EQ(shapeNumel({}), 1u);
    EXPECT_EQ(shapeNumel({3}), 3u);
    EXPECT_EQ(shapeNumel({2, 3, 4}), 24u);
}

TEST(Tensor, ConstructZeroFilled)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6u);
    for (std::size_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ConstructWithValue)
{
    Tensor t({4}, 2.5f);
    EXPECT_EQ(t.sum(), 10.0f);
}

TEST(Tensor, At2Indexing)
{
    Tensor t({2, 3});
    t.at2(1, 2) = 7.0f;
    EXPECT_EQ(t[5], 7.0f);
}

TEST(Tensor, At4Indexing)
{
    Tensor t({2, 3, 4, 5});
    t.at4(1, 2, 3, 4) = 9.0f;
    EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapeKeepsData)
{
    Tensor t({2, 3}, 1.0f);
    t[4] = 5.0f;
    t.reshape({3, 2});
    EXPECT_EQ(t.at2(2, 0), 5.0f);
}

TEST(Tensor, Reductions)
{
    Tensor t({4}, std::vector<float>{-3.0f, 1.0f, 2.0f, -0.5f});
    EXPECT_FLOAT_EQ(t.sum(), -0.5f);
    EXPECT_FLOAT_EQ(t.maxAbs(), 3.0f);
    EXPECT_FLOAT_EQ(t.min(), -3.0f);
    EXPECT_FLOAT_EQ(t.max(), 2.0f);
    EXPECT_FLOAT_EQ(t.mean(), -0.125f);
    EXPECT_FLOAT_EQ(t.sumSquares(), 9.0f + 1.0f + 4.0f + 0.25f);
}

TEST(Tensor, FillGaussianStats)
{
    Rng rng(3);
    Tensor t({100000});
    t.fillGaussian(rng, 1.0f, 0.5f);
    EXPECT_NEAR(t.mean(), 1.0f, 0.02f);
}

TEST(Tensor, ApplyElementwise)
{
    Tensor t({3}, 2.0f);
    t.apply([](float x) { return x * x; });
    EXPECT_FLOAT_EQ(t.sum(), 12.0f);
}

TEST(TensorOps, AddSubMul)
{
    Tensor a({2}, std::vector<float>{1.0f, 2.0f});
    Tensor b({2}, std::vector<float>{3.0f, 5.0f});
    EXPECT_EQ(add(a, b)[1], 7.0f);
    EXPECT_EQ(sub(b, a)[0], 2.0f);
    EXPECT_EQ(mul(a, b)[1], 10.0f);
    EXPECT_EQ(scale(a, 4.0f)[0], 4.0f);
}

TEST(TensorOps, Accumulate)
{
    Tensor a({2}, 1.0f);
    Tensor b({2}, 2.0f);
    accumulate(a, b, 0.5f);
    EXPECT_FLOAT_EQ(a[0], 2.0f);
}

TEST(TensorOps, MatmulSmallKnown)
{
    Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
    Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
    const Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c.at2(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at2(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at2(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at2(1, 1), 154.0f);
}

TEST(TensorOps, MatmulTransVariantsAgree)
{
    // One kernel, one accumulation contract: the three transposition
    // variants must agree bit for bit, zero-skips included.
    Rng rng(5);
    Tensor a({7, 13});
    Tensor b({13, 5});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    for (std::size_t i = 0; i < a.numel(); i += 3)
        a[i] = 0.0f;
    for (std::size_t i = 0; i < b.numel(); i += 4)
        b[i] = 0.0f;
    const Tensor c = matmul(a, b);

    const Tensor c1 = matmulTransA(transpose(a), b);
    const Tensor c2 = matmulTransB(a, transpose(b));
    ASSERT_EQ(c1.shape(), c.shape());
    ASSERT_EQ(c2.shape(), c.shape());
    EXPECT_EQ(0, std::memcmp(c.data(), c1.data(),
                             c.numel() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(c.data(), c2.data(),
                             c.numel() * sizeof(float)));
}

TEST(TensorOps, TransposeRoundTrip)
{
    Rng rng(6);
    Tensor a({4, 9});
    a.fillGaussian(rng, 0.0f, 1.0f);
    EXPECT_TRUE(transpose(transpose(a)) == a);
}

TEST(TensorOps, Conv2dGeometryDims)
{
    Conv2dGeometry g{3, 8, 3, 3, 1, 1};
    EXPECT_EQ(g.outH(16), 16u);
    EXPECT_EQ(g.outW(16), 16u);
    Conv2dGeometry s{3, 8, 3, 3, 2, 0};
    EXPECT_EQ(s.outH(7), 3u);
}

TEST(TensorOps, Conv2dOneByOneIdentity)
{
    // A 1x1 convolution with the identity weight is a reshape: every
    // output pixel is the input pixel.
    Rng rng(7);
    Tensor x({2, 3, 4, 5});
    x.fillGaussian(rng, 0.0f, 1.0f);
    Conv2dGeometry g{3, 3, 1, 1, 1, 0};
    Tensor eye({3, 3});
    for (std::size_t i = 0; i < 3; ++i)
        eye.at2(i, i) = 1.0f;
    const Tensor y = conv2dForward(x, eye, nullptr, g);
    EXPECT_TRUE(y == x);
    EXPECT_FLOAT_EQ(y.at4(1, 1, 2, 3), x.at4(1, 1, 2, 3));
}

TEST(TensorOps, Conv2dPaddingContributesZero)
{
    Tensor x({1, 1, 2, 2}, 1.0f);
    Conv2dGeometry g{1, 1, 3, 3, 1, 1};
    const Tensor ones({9, 1}, 1.0f);
    const Tensor y = conv2dForward(x, ones, nullptr, g);
    // Every 3x3 window covers the whole 2x2 image; the other five taps
    // read padding.
    for (std::size_t i = 0; i < y.numel(); ++i)
        EXPECT_FLOAT_EQ(y[i], 4.0f);
    // Only the taps over the image carry a gradient to the weight.
    const Tensor dw = conv2dWeightGrad(x, Tensor({1, 1, 2, 2}, 1.0f), g);
    EXPECT_FLOAT_EQ(dw.at2(0, 0), 1.0f); // (-1, -1): one window
    EXPECT_FLOAT_EQ(dw.at2(4, 0), 4.0f); // centre: every window
}

TEST(TensorOps, Conv2dGradientsAreAdjoint)
{
    // <conv(x, W), y> == <x, dX(y, W)> == <W, dW(x, y)>: the input and
    // weight gradients are the adjoints of the forward map.
    Rng rng(8);
    Tensor x({2, 3, 6, 7});
    x.fillGaussian(rng, 0.0f, 1.0f);
    Conv2dGeometry g{3, 4, 3, 3, 2, 1};
    Tensor w({27, 4});
    w.fillGaussian(rng, 0.0f, 1.0f);
    const Tensor fwd = conv2dForward(x, w, nullptr, g);
    Tensor y(fwd.shape());
    y.fillGaussian(rng, 0.0f, 1.0f);
    const Tensor dx = conv2dInputGrad(y, w, x.shape(), g);
    const Tensor dw = conv2dWeightGrad(x, y, g);

    const auto dot = [](const Tensor &a, const Tensor &b) {
        double s = 0.0;
        for (std::size_t i = 0; i < a.numel(); ++i)
            s += static_cast<double>(a[i]) * b[i];
        return s;
    };
    const double lhs = dot(fwd, y);
    EXPECT_NEAR(lhs, dot(x, dx), 1e-3);
    EXPECT_NEAR(lhs, dot(w, dw), 1e-3);
}

TEST(TensorOps, Distances)
{
    Tensor a({3}, std::vector<float>{1.0f, 0.0f, -1.0f});
    Tensor b({3}, std::vector<float>{0.0f, 0.0f, -1.0f});
    EXPECT_DOUBLE_EQ(rectilinearDistance(a, b), 1.0);
    EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 1.0);
    EXPECT_NEAR(rmse(a, b), std::sqrt(1.0 / 3.0), 1e-9);
    EXPECT_NEAR(meanBias(a, b), 1.0 / 3.0, 1e-9);
}

TEST(TensorOps, CosineSimilarityIdentical)
{
    Rng rng(9);
    Tensor a({64});
    a.fillGaussian(rng, 0.0f, 1.0f);
    EXPECT_NEAR(cosineSimilarity(a, a), 1.0, 1e-9);
    EXPECT_NEAR(cosineSimilarity(a, scale(a, -2.0f)), -1.0, 1e-9);
}

// ------------------------------------------------- shape-check panics

TEST(TensorOpsDeath, ElementwiseShapeMismatchNamesBothShapes)
{
    Tensor a({2, 3}), b({3, 2});
    EXPECT_DEATH(add(a, b), "add: shape mismatch \\[2, 3\\] vs \\[3, 2\\]");
    EXPECT_DEATH(accumulate(a, b, 1.0f), "accumulate: shape mismatch");
}

TEST(TensorOpsDeath, MatmulShapeMismatchNamesBothShapes)
{
    Tensor a({4, 5}), b({6, 7});
    EXPECT_DEATH(matmul(a, b),
                 "matmul: inner dims disagree, \\[4, 5\\] x \\[6, 7\\]");
    Tensor v({5});
    EXPECT_DEATH(matmul(v, b), "matmul: expects rank-2 operands");
    EXPECT_DEATH(matmulTransA(a, b), "matmulTransA: A\\^T rows 4 != B rows 6");
    EXPECT_DEATH(matmulTransB(a, b), "matmulTransB: A cols 5 != B\\^T rows 7");
}

TEST(TensorOpsDeath, TransposeAndConvShapeChecks)
{
    Tensor v({6});
    EXPECT_DEATH(transpose(v), "transpose: expects rank 2, got \\[6\\]");

    Conv2dGeometry g;
    g.inChannels = 3;
    g.outChannels = 4;
    g.kernelH = g.kernelW = 3;
    g.stride = 1;
    g.pad = 1;
    const Tensor w({27, 4});
    Tensor notNchw({2, 3, 8});
    EXPECT_DEATH(conv2dForward(notNchw, w, nullptr, g),
                 "conv2dForward: expects NCHW");
    Tensor wrongChannels({1, 2, 8, 8});
    EXPECT_DEATH(conv2dWeightGrad(wrongChannels, Tensor({1, 4, 8, 8}), g),
                 "has 2 channels, geometry wants 3");
    EXPECT_DEATH(conv2dForward(Tensor({1, 3, 8, 8}), Tensor({9, 4}),
                               nullptr, g),
                 "conv2dForward: weight \\[9, 4\\], want \\[27, 4\\]");
    Tensor dy({5, 5});
    EXPECT_DEATH(conv2dInputGrad(dy, w, {1, 3, 8, 8}, g),
                 "conv2dInputGrad: grad_output \\[5, 5\\], want "
                 "\\[1, 4, 8, 8\\]");
}

} // namespace
} // namespace cq
