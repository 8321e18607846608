#include "conv/winograd.hpp"

#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace aks::conv {

namespace {

/// Local widening cast for index arithmetic on validated dimensions.
inline std::size_t zu(int v) { return static_cast<std::size_t>(v); }

/// Transform matrices of F(M x M, 3x3) (Lavin & Gray, "Fast Algorithms for
/// Convolutional Neural Networks"): B^T is (M+2)x(M+2), G is (M+2)x3 and
/// A^T is Mx(M+2).
template <int M>
struct Transforms;

template <>
struct Transforms<2> {
  static constexpr float kBT[4][4] = {
      {1, 0, -1, 0}, {0, 1, 1, 0}, {0, -1, 1, 0}, {0, 1, 0, -1}};
  static constexpr float kG[4][3] = {
      {1, 0, 0}, {0.5f, 0.5f, 0.5f}, {0.5f, -0.5f, 0.5f}, {0, 0, 1}};
  static constexpr float kAT[2][4] = {{1, 1, 1, 0}, {0, 1, -1, -1}};
};

template <>
struct Transforms<4> {
  static constexpr float kBT[6][6] = {
      {4, 0, -5, 0, 1, 0},  {0, -4, -4, 1, 1, 0}, {0, 4, -4, -1, 1, 0},
      {0, -2, -1, 2, 1, 0}, {0, 2, -1, -2, 1, 0}, {0, 4, 0, -5, 0, 1}};
  static constexpr float kG[6][3] = {
      {1.0f / 4, 0, 0},
      {-1.0f / 6, -1.0f / 6, -1.0f / 6},
      {-1.0f / 6, 1.0f / 6, -1.0f / 6},
      {1.0f / 24, 1.0f / 12, 1.0f / 6},
      {1.0f / 24, -1.0f / 12, 1.0f / 6},
      {0, 0, 1}};
  static constexpr float kAT[4][6] = {{1, 1, 1, 1, 1, 0},
                                      {0, 1, -1, 2, -2, 0},
                                      {0, 1, 1, 4, 4, 0},
                                      {0, 1, -1, 8, -8, 1}};
};

/// Calls f(std::integral_constant<std::size_t, i>{}) for i = 0 .. n-1.
template <std::size_t n, class F>
inline void unroll(const F& f) {
  [&]<std::size_t... i>(std::index_sequence<i...>) {
    (f(std::integral_constant<std::size_t, i>{}), ...);
  }(std::make_index_sequence<n>{});
}

/// sum_k W[r][k] * x(k), folded at compile time: zero coefficients are
/// skipped and +-1 become add/sub. The float sum runs in column order and
/// starts from the first non-zero term.
template <const auto& W, std::size_t r, class X>
inline float dot(const X& x) {
  constexpr std::size_t cols = std::extent_v<std::remove_cvref_t<decltype(W)>, 1>;
  constexpr std::size_t first = [] {
    std::size_t k = 0;
    while (W[r][k] == 0.0f) ++k;
    return k;
  }();
  float acc = 0.0f;
  unroll<cols>([&](auto k) {
    constexpr float w = W[r][k];
    if constexpr (w != 0.0f) {
      const float term = w == 1.0f ? x(k) : w == -1.0f ? -x(k) : w * x(k);
      if constexpr (k == first) {
        acc = term;
      } else {
        acc += term;
      }
    }
  });
  return acc;
}

/// out = W in W^T for one tile.
template <const auto& W, std::size_t R, std::size_t C>
inline void sandwich(const float (&in)[C][C], float (&out)[R][R]) {
  using Matrix = std::remove_cvref_t<decltype(W)>;
  static_assert(std::extent_v<Matrix, 0> == R && std::extent_v<Matrix, 1> == C);
  float t[R][C];  // W in
  unroll<R>([&](auto r) {
    unroll<C>([&](auto c) {
      t[r][c] = dot<W, r>([&](std::size_t k) { return in[k][c]; });
    });
  });
  unroll<R>([&](auto i) {
    unroll<R>([&](auto j) {
      out[i][j] = dot<W, j>([&](std::size_t k) { return t[i][k]; });
    });
  });
}

/// Output tiles of side M covering `extent` outputs.
template <int M>
int tiles_of(int extent) {
  return (extent + M - 1) / M;
}

template <int M>
gemm::GemmShape gemm_shape(const ConvShape& shape) {
  gemm::GemmShape out;
  out.m = zu(shape.batch) * zu(tiles_of<M>(shape.out_height())) *
          zu(tiles_of<M>(shape.out_width()));
  out.k = zu(shape.in_channels);
  out.n = zu(shape.out_channels);
  return out;
}

/// Winograd F(M x M, 3x3): transform, (M+2)^2 multiplies as one batched
/// launch, inverse transform and scatter of the M x M output tiles.
template <int M>
void winograd(syclrt::Queue& queue, const gemm::KernelConfig& config,
              std::span<const float> input, std::span<const float> filter,
              std::span<float> output, const ConvShape& shape,
              const BatchedGemmLaunchFn& launch) {
  using T = Transforms<M>;
  constexpr std::size_t kSide = M + 2;  // input tile side
  constexpr std::size_t kOut = M;       // output tile side
  constexpr std::size_t kPositions = kWinogradMultiplies<M>;
  check_shape(shape);
  AKS_CHECK(winograd_applicable(shape),
            "Winograd F(" << M << "x" << M
                          << ",3x3) requires a 3x3 stride-1 convolution");
  AKS_CHECK(input.size() == shape.input_size(), "input size mismatch");
  AKS_CHECK(filter.size() == shape.filter_size(), "filter size mismatch");
  AKS_CHECK(output.size() == shape.output_size(), "output size mismatch");

  const auto mm = gemm_shape<M>(shape);
  const std::size_t tiles = mm.m;
  const auto in_c = zu(shape.in_channels);
  const auto out_c = zu(shape.out_channels);
  const int oh = shape.out_height();
  const int ow = shape.out_width();
  const int tiles_h = tiles_of<M>(oh);
  const int tiles_w = tiles_of<M>(ow);

  // --- Filter transform: U packed as [pos][c, f], contiguous per position
  // so the multiplies run as one batched GEMM.
  const std::size_t u_plane = in_c * out_c;
  std::vector<float> u(kPositions * u_plane, 0.0f);
  for (std::size_t c = 0; c < in_c; ++c) {
    for (std::size_t f = 0; f < out_c; ++f) {
      float g[3][3];
      for (std::size_t ky = 0; ky < 3; ++ky)
        for (std::size_t kx = 0; kx < 3; ++kx)
          g[ky][kx] = filter[((ky * 3 + kx) * in_c + c) * out_c + f];
      float ut[kSide][kSide];
      sandwich<T::kG>(g, ut);
      for (std::size_t pos = 0; pos < kPositions; ++pos) {
        u[pos * u_plane + c * out_c + f] = ut[pos / kSide][pos % kSide];
      }
    }
  }

  // --- Input transform: V packed as [pos][tile, c]. -----------------------
  const std::size_t v_plane = tiles * in_c;
  std::vector<float> v(kPositions * v_plane, 0.0f);
  const auto in_w = zu(shape.in_width);
  for (int n = 0; n < shape.batch; ++n) {
    const std::size_t in_base = zu(n) * zu(shape.in_height) * in_w * in_c;
    for (int ty = 0; ty < tiles_h; ++ty) {
      for (int tx = 0; tx < tiles_w; ++tx) {
        const std::size_t tile =
            (zu(n) * zu(tiles_h) + zu(ty)) * zu(tiles_w) + zu(tx);
        for (std::size_t c = 0; c < in_c; ++c) {
          float d[kSide][kSide];
          for (int dy = 0; dy < M + 2; ++dy) {
            const int in_y = ty * M + dy - shape.padding;
            for (int dx = 0; dx < M + 2; ++dx) {
              const int in_x = tx * M + dx - shape.padding;
              const bool inside = in_y >= 0 && in_y < shape.in_height &&
                                  in_x >= 0 && in_x < shape.in_width;
              d[dy][dx] =
                  inside ? input[in_base + (zu(in_y) * in_w + zu(in_x)) * in_c + c]
                         : 0.0f;
            }
          }
          float vt[kSide][kSide];
          sandwich<T::kBT>(d, vt);
          for (std::size_t pos = 0; pos < kPositions; ++pos) {
            v[pos * v_plane + tile * in_c + c] = vt[pos / kSide][pos % kSide];
          }
        }
      }
    }
  }

  // --- The multiplies M[pos] = V[pos] * U[pos], as ONE batched launch over
  // the packed planes.
  const std::size_t m_plane = tiles * out_c;
  std::vector<float> m(kPositions * m_plane, 0.0f);
  launch(queue, config, v, u, m, mm, kPositions);

  // --- Output transform, scattered with guards for ragged edge tiles. -----
  for (int n = 0; n < shape.batch; ++n) {
    const std::size_t out_base = zu(n) * zu(oh) * zu(ow) * out_c;
    for (int ty = 0; ty < tiles_h; ++ty) {
      for (int tx = 0; tx < tiles_w; ++tx) {
        const std::size_t tile =
            (zu(n) * zu(tiles_h) + zu(ty)) * zu(tiles_w) + zu(tx);
        for (std::size_t f = 0; f < out_c; ++f) {
          float mt[kSide][kSide];
          for (std::size_t pos = 0; pos < kPositions; ++pos) {
            mt[pos / kSide][pos % kSide] = m[pos * m_plane + tile * out_c + f];
          }
          float y[kOut][kOut];
          sandwich<T::kAT>(mt, y);
          for (int dy = 0; dy < M; ++dy) {
            const int out_y = ty * M + dy;
            if (out_y >= oh) continue;
            for (int dx = 0; dx < M; ++dx) {
              const int out_x = tx * M + dx;
              if (out_x >= ow) continue;
              output[out_base + (zu(out_y) * zu(ow) + zu(out_x)) * out_c + f] =
                  y[dy][dx];
            }
          }
        }
      }
    }
  }
}

}  // namespace

bool winograd_applicable(const ConvShape& shape) {
  return shape.kernel == 3 && shape.stride == 1;
}

gemm::GemmShape winograd_gemm_shape(const ConvShape& shape) {
  return gemm_shape<2>(shape);
}

gemm::GemmShape winograd4_gemm_shape(const ConvShape& shape) {
  return gemm_shape<4>(shape);
}

void winograd_conv2d(syclrt::Queue& queue, const gemm::KernelConfig& config,
                     std::span<const float> input,
                     std::span<const float> filter, std::span<float> output,
                     const ConvShape& shape,
                     const BatchedGemmLaunchFn& launch) {
  winograd<2>(queue, config, input, filter, output, shape, launch);
}

void winograd4_conv2d(syclrt::Queue& queue, const gemm::KernelConfig& config,
                      std::span<const float> input,
                      std::span<const float> filter, std::span<float> output,
                      const ConvShape& shape,
                      const BatchedGemmLaunchFn& launch) {
  winograd<4>(queue, config, input, filter, output, shape, launch);
}

}  // namespace aks::conv
