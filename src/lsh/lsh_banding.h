// Classic banded LSH for threshold queries.
//
// A signature of n values is split into b bands of r rows; two items
// collide if any band matches exactly. The collision probability for
// Jaccard similarity s is 1 - (1 - s^r)^b, an S-curve whose inflection
// approximates (1/b)^(1/r). Given a target threshold tau (the paper uses
// 0.7), OptimalBandCount picks the b (and r = n/b) whose curve threshold is
// closest to tau. Used for the SA-join graph's tset-overlap evidence
// (Section IV), where threshold semantics — not top-k — are needed.
#pragma once

#include <cstdint>
#include <vector>

#include "lsh/minhash.h"

namespace d3l {

struct BandedLshOptions {
  double threshold = 0.7;  ///< target Jaccard similarity threshold tau
  size_t signature_size = 256;
};

/// \brief Chooses (bands, rows) for a signature size and threshold.
///
/// Scans divisors b of n and returns the b minimizing
/// |(1/b)^(1/(n/b)) - threshold|.
std::pair<size_t, size_t> OptimalBandsRows(size_t signature_size, double threshold);

/// \brief Expected collision probability 1 - (1 - s^r)^b.
double BandingCollisionProbability(double similarity, size_t bands, size_t rows);

/// \brief Threshold-style LSH index over MinHash signatures.
///
/// Flat layout: each band is one contiguous array of (band hash, id)
/// entries, split into parallel hash and id arrays. Insert appends; Index()
/// sorts every band by hash (ties keep insertion order), after which a
/// band's bucket is the contiguous run of equal hashes a binary search
/// finds. No per-bucket allocation, so MemoryUsage() is exact.
class BandedLsh {
 public:
  using ItemId = uint32_t;

  explicit BandedLsh(BandedLshOptions options = {});

  size_t bands() const { return bands_; }
  size_t rows() const { return rows_; }

  /// Registers an item; call Index() before querying.
  void Insert(ItemId id, const Signature& signature);

  /// Span form for flat signature stores: `signature` points at `n` values.
  void Insert(ItemId id, const uint64_t* signature, size_t n);

  /// Sorts the bands. Insert/Index may be alternated (Index re-sorts, and
  /// buckets keep insertion order across rounds).
  void Index();

  /// Items sharing at least one band with the query (candidates whose
  /// Jaccard similarity is likely >= threshold), deduplicated at first
  /// sight: bands in order, ids in insertion order within a bucket. Aborts
  /// (in all build types) if an Insert has not been followed by Index().
  std::vector<ItemId> Query(const Signature& signature) const;

  size_t size() const { return num_items_; }
  /// Exact heap + object footprint in bytes.
  size_t MemoryUsage() const;

 private:
  struct Band {
    std::vector<uint64_t> hashes;  ///< band hash per entry
    std::vector<ItemId> ids;       ///< parallel to hashes
  };

  uint64_t BandHash(size_t band, const uint64_t* sig) const;
  // Aborts (in all build types) if the signature is too short for BandHash.
  void CheckSignatureSize(size_t n) const;

  BandedLshOptions options_;
  size_t bands_;
  size_t rows_;
  std::vector<Band> tables_;  ///< one per band
  size_t num_items_ = 0;
  ItemId max_id_ = 0;    ///< sizes Query's dedup bitmap
  bool indexed_ = true;  ///< every band sorted (trivially so when empty)
};

}  // namespace d3l
