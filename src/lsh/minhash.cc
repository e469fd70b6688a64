#include "lsh/minhash.h"

#include <cassert>
#include <limits>

namespace d3l {

MinHasher::MinHasher(size_t k, uint64_t seed) : family_(k, seed) {}

Signature MinHasher::SignHashed(const std::vector<uint64_t>& element_hashes) const {
  Signature sig(family_.size(), std::numeric_limits<uint64_t>::max());
  for (uint64_t eh : element_hashes) {
    for (size_t i = 0; i < family_.size(); ++i) {
      uint64_t h = family_.Apply(i, eh);
      if (h < sig[i]) sig[i] = h;
    }
  }
  return sig;
}

Signature MinHasher::Sign(const std::set<std::string>& elements) const {
  std::vector<uint64_t> hashes;
  hashes.reserve(elements.size());
  for (const std::string& e : elements) hashes.push_back(HashString(e));
  return SignHashed(hashes);
}

Signature MinHasher::Sign(const std::vector<std::string>& elements) const {
  std::vector<uint64_t> hashes;
  hashes.reserve(elements.size());
  for (const std::string& e : elements) hashes.push_back(HashString(e));
  return SignHashed(hashes);
}

double EstimateJaccard(const Signature& a, const Signature& b) {
  assert(a.size() == b.size());
  return EstimateJaccard(a.data(), b.data(), a.size());
}

double EstimateJaccard(const uint64_t* a, const uint64_t* b, size_t n) {
  if (n == 0) return 0;
  // Sentinel components (both sets empty at i) are not evidence of
  // similarity, so a signature of an empty set matches nothing: counting
  // only equal non-sentinel components gives 0 for an all-sentinel pair.
  // Branch-free, so the compiler vectorizes the loop.
  constexpr uint64_t kEmpty = std::numeric_limits<uint64_t>::max();
  size_t match = 0;
  for (size_t i = 0; i < n; ++i) {
    match += static_cast<size_t>((a[i] == b[i]) & (a[i] != kEmpty));
  }
  return static_cast<double>(match) / static_cast<double>(n);
}

}  // namespace d3l
