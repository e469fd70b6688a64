#include "lsh/lsh_banding.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/hash.h"

namespace d3l {

std::pair<size_t, size_t> OptimalBandsRows(size_t signature_size, double threshold) {
  assert(signature_size > 0);
  // b*r need not cover the whole signature exactly; allowing b = floor(n/r)
  // makes the achievable threshold set much denser.
  size_t best_b = 1;
  size_t best_r = signature_size;
  double best_err = 1e9;
  for (size_t r = 1; r <= signature_size; ++r) {
    size_t b = signature_size / r;
    if (b == 0) break;
    double t = std::pow(1.0 / static_cast<double>(b), 1.0 / static_cast<double>(r));
    double err = std::fabs(t - threshold);
    if (err < best_err) {
      best_err = err;
      best_b = b;
      best_r = r;
    }
  }
  return {best_b, best_r};
}

double BandingCollisionProbability(double similarity, size_t bands, size_t rows) {
  double p_band = std::pow(similarity, static_cast<double>(rows));
  return 1.0 - std::pow(1.0 - p_band, static_cast<double>(bands));
}

BandedLsh::BandedLsh(BandedLshOptions options) : options_(options) {
  auto [b, r] = OptimalBandsRows(options_.signature_size, options_.threshold);
  bands_ = b;
  rows_ = r;
  tables_.resize(bands_);
}

void BandedLsh::CheckSignatureSize(size_t n) const {
  // BandHash reads sig[bands * rows - 1]; a short signature (options that
  // disagree with the hasher) would read out of bounds. Fail
  // loudly in release builds too, like LshForest::CheckSignatureSize —
  // Insert/Query are per-item, so the check is cheap.
  const size_t need = bands_ * rows_;
  if (n < need) {
    std::fprintf(stderr,
                 "BandedLsh: signature has %zu values but bands * rows = %zu "
                 "(options signature_size %zu)\n",
                 n, need, options_.signature_size);
    std::abort();
  }
}

uint64_t BandedLsh::BandHash(size_t band, const uint64_t* sig) const {
  uint64_t h = Mix64(band + 0x51ed2701);
  for (size_t i = 0; i < rows_; ++i) {
    h = HashCombine(h, sig[band * rows_ + i]);
  }
  return h;
}

void BandedLsh::Insert(ItemId id, const Signature& signature) {
  Insert(id, signature.data(), signature.size());
}

void BandedLsh::Insert(ItemId id, const uint64_t* signature, size_t n) {
  CheckSignatureSize(n);
  for (size_t b = 0; b < bands_; ++b) {
    tables_[b].hashes.push_back(BandHash(b, signature));
    tables_[b].ids.push_back(id);
  }
  max_id_ = std::max(max_id_, id);
  ++num_items_;
  indexed_ = false;
}

void BandedLsh::Index() {
  if (indexed_) return;
  // LSD radix sort on the band hash, one byte per pass. Radix sort is
  // stable, so equal hashes keep insertion order: each bucket lists its ids
  // exactly as they were inserted, across Insert/Index rounds too.
  constexpr size_t kPasses = sizeof(uint64_t);
  Band scratch;
  for (Band& band : tables_) {
    const size_t n = band.hashes.size();
    std::array<std::array<size_t, 256>, kPasses> counts{};
    for (uint64_t h : band.hashes) {
      for (size_t p = 0; p < kPasses; ++p) ++counts[p][(h >> (8 * p)) & 0xff];
    }
    scratch.hashes.resize(n);
    scratch.ids.resize(n);
    for (size_t p = 0; p < kPasses; ++p) {
      std::array<size_t, 256>& offset = counts[p];
      if (n == 0 || offset[(band.hashes[0] >> (8 * p)) & 0xff] == n) continue;
      size_t sum = 0;
      for (size_t& c : offset) sum += std::exchange(c, sum);
      for (size_t i = 0; i < n; ++i) {
        const size_t dst = offset[(band.hashes[i] >> (8 * p)) & 0xff]++;
        scratch.hashes[dst] = band.hashes[i];
        scratch.ids[dst] = band.ids[i];
      }
      std::swap(band, scratch);
    }
    // Exact capacities: the arrays are final until the next Insert.
    band.hashes.shrink_to_fit();
    band.ids.shrink_to_fit();
  }
  indexed_ = true;
}

std::vector<BandedLsh::ItemId> BandedLsh::Query(const Signature& signature) const {
  CheckSignatureSize(signature.size());
  if (!indexed_) {
    std::fprintf(stderr, "BandedLsh: Query before Index() (%zu items inserted)\n",
                 num_items_);
    std::abort();
  }
  std::vector<ItemId> out;
  // Dedup bitmap over ids, allocated at the first hit: one bit test per hit
  // however many ids a threshold lookup returns.
  std::vector<uint64_t> seen;
  for (size_t b = 0; b < bands_; ++b) {
    const Band& band = tables_[b];
    const uint64_t h = BandHash(b, signature.data());
    auto it = std::lower_bound(band.hashes.begin(), band.hashes.end(), h);
    for (size_t i = static_cast<size_t>(it - band.hashes.begin());
         i < band.hashes.size() && band.hashes[i] == h; ++i) {
      const ItemId id = band.ids[i];
      if (seen.empty()) seen.assign(max_id_ / 64 + 1, 0);
      uint64_t& word = seen[id / 64];
      const uint64_t bit = uint64_t{1} << (id % 64);
      if ((word & bit) == 0) {
        word |= bit;
        out.push_back(id);
      }
    }
  }
  return out;
}

size_t BandedLsh::MemoryUsage() const {
  size_t bytes = sizeof(BandedLsh) + tables_.capacity() * sizeof(Band);
  for (const Band& band : tables_) {
    bytes += band.hashes.capacity() * sizeof(uint64_t) + band.ids.capacity() * sizeof(ItemId);
  }
  return bytes;
}

}  // namespace d3l
