// Portable 4-wide unrolled hot-loop kernels.
//
// The two kernels here sit on SmartML's two hottest paths: per-node bin
// histogram accumulation during histogram tree growth, and the z-normalized
// meta-feature distance scanned over every KB entry during neighbour lookup.
// Both are written as manual 4-wide unrolls with independent accumulators so
// any -O2 compiler can keep four lanes in flight (and auto-vectorize the
// distance kernel); neither requires intrinsics, so the code is portable to
// every target the repo builds on. Define SMARTML_SIMD_SCALAR to force the
// plain scalar loops — the unit tests build both flavours to prove they
// agree, and the macro is the escape hatch for odd targets.
#ifndef SMARTML_COMMON_SIMD_H_
#define SMARTML_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace smartml {

/// Sum of squared differences between two length-n vectors (the inner loop
/// of the KB's z-normalized Euclidean distance). Four independent partial
/// sums break the loop-carried dependence so the adds pipeline/vectorize;
/// the pairwise reduction at the end keeps the summation tree fixed, making
/// results identical across calls on the same data.
inline double SquaredDistance(const double* a, const double* b, size_t n) {
#if !defined(SMARTML_SIMD_SCALAR)
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double s = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
#else
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
#endif
}

/// Words of a narrow bin-occupancy mask: one bit per histogram slot 0..255,
/// enough for a column of at most 255 value bins plus its missing slot. A
/// wider column's mask has one bit per slot, ceil(slots / 64) words.
inline constexpr size_t kBinMaskWords = 4;
inline constexpr size_t kBinMaskSlots = 64 * kBinMaskWords;

/// Scatters `n` training rows into per-bin class histograms: for each listed
/// row r, adds w[r] to wsum[bin(r) * num_classes + y[r]], bumps cnt[bin(r)]
/// and sets bit bin(r) of the occupancy mask `occupied`, so a caller can
/// later visit (and re-zero) only the slots these rows touched. Codes equal
/// to or above `num_bins` (the missing-bin code) land in the overflow slot
/// `num_bins`, so wsum must hold (num_bins + 1) * num_classes entries, cnt
/// (num_bins + 1) and `occupied` max(kBinMaskWords, ceil((num_bins + 1) /
/// 64)) words. The gather side (row indices, codes, labels, weights) is
/// unrolled four-wide so the loads overlap; the scatter adds stay scalar
/// because two lanes may hit the same bin.
inline void AccumulateBinHistogram(const uint16_t* codes, const size_t* rows,
                                   size_t n, const int* y, const double* w,
                                   size_t num_classes, size_t num_bins,
                                   double* wsum, uint32_t* cnt,
                                   uint64_t* occupied) {
  if (num_bins >= kBinMaskSlots) {
    // A wide column: folding a flag per slot would cost the column's slot
    // count on every call, so each row sets its bit directly.
    for (size_t i = 0; i < n; ++i) {
      const size_t r = rows[i];
      size_t b = codes[r];
      if (b > num_bins) b = num_bins;
      wsum[b * num_classes + static_cast<size_t>(y[r])] += w[r];
      ++cnt[b];
      occupied[b / 64] |= uint64_t{1} << (b % 64);
    }
    return;
  }
  // Each row flags its slot in a byte map: one plain store, no dependence
  // between rows. The flags are folded into the mask at the end.
  uint8_t touched[kBinMaskSlots] = {};
  auto scatter = [&](size_t b, size_t label, double weight) {
    wsum[b * num_classes + label] += weight;
    ++cnt[b];
    touched[b] = 1;
  };
#if !defined(SMARTML_SIMD_SCALAR)
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const size_t r0 = rows[i];
    const size_t r1 = rows[i + 1];
    const size_t r2 = rows[i + 2];
    const size_t r3 = rows[i + 3];
    size_t b0 = codes[r0];
    size_t b1 = codes[r1];
    size_t b2 = codes[r2];
    size_t b3 = codes[r3];
    if (b0 > num_bins) b0 = num_bins;
    if (b1 > num_bins) b1 = num_bins;
    if (b2 > num_bins) b2 = num_bins;
    if (b3 > num_bins) b3 = num_bins;
    const auto y0 = static_cast<size_t>(y[r0]);
    const auto y1 = static_cast<size_t>(y[r1]);
    const auto y2 = static_cast<size_t>(y[r2]);
    const auto y3 = static_cast<size_t>(y[r3]);
    const double w0 = w[r0];
    const double w1 = w[r1];
    const double w2 = w[r2];
    const double w3 = w[r3];
    scatter(b0, y0, w0);
    scatter(b1, y1, w1);
    scatter(b2, y2, w2);
    scatter(b3, y3, w3);
  }
  for (; i < n; ++i) {
    const size_t r = rows[i];
    size_t b = codes[r];
    if (b > num_bins) b = num_bins;
    scatter(b, static_cast<size_t>(y[r]), w[r]);
  }
#else
  for (size_t i = 0; i < n; ++i) {
    const size_t r = rows[i];
    size_t b = codes[r];
    if (b > num_bins) b = num_bins;
    scatter(b, static_cast<size_t>(y[r]), w[r]);
  }
#endif
  for (size_t word = 0; word < kBinMaskWords; ++word) {
    uint64_t bits = 0;
    for (size_t j = 0; j < 8; ++j) {
      // Eight 0/1 flags, flag t at bit 8t (compilers merge this into one
      // load on little-endian targets), folded into eight bits by one
      // multiply: bit 56 + t of the product is flag t.
      const uint8_t* group = touched + word * 64 + j * 8;
      uint64_t flags = 0;
      for (size_t t = 0; t < 8; ++t) flags |= uint64_t{group[t]} << (8 * t);
      bits |= ((flags * 0x0102040810204080ull) >> 56) << (j * 8);
    }
    occupied[word] |= bits;
  }
}

}  // namespace smartml

#endif  // SMARTML_COMMON_SIMD_H_
