// LSH Forest (Bawa, Condie, Ganesan — WWW 2005).
//
// A self-tuning LSH index: l prefix trees, each keyed by a fixed-length
// sequence of hash values taken from an item's signature. A top-m query
// starts at the deepest shared prefix and relaxes the prefix length until
// enough candidates are found, which keeps search time nearly independent
// of repository size (the property the paper relies on, Section II).
//
// This implementation stores each tree as a flat structure-of-arrays: one
// contiguous array of fixed-width keys (hashes_per_tree uint64_t values per
// entry, entries prefix-sorted) and a parallel array of item ids. Queries
// are prefix-range binary searches over the key array — equivalent to a
// prefix tree but cache-friendly, allocation-free per entry, and directly
// serializable: Save() emits the arrays verbatim (8-byte aligned), so a
// mapped snapshot load is pointer fix-up and the tree borrows the mapping
// instead of copying it.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "io/binary_io.h"
#include "lsh/minhash.h"

namespace d3l {

struct LshForestOptions {
  size_t num_trees = 8;       ///< l: number of prefix trees
  size_t hashes_per_tree = 8; ///< k_l: key length per tree (in hash values)

  bool operator==(const LshForestOptions&) const = default;
};

/// \brief Clamps forest options so num_trees * hashes_per_tree fits within a
/// signature of `available_values` values (e.g. rp_bits / 8 for bit
/// signatures run through SignatureAsHashSequence). Shrinks hashes_per_tree
/// first, then num_trees when even one hash per tree does not fit.
/// Requires available_values >= 1: nothing fits an empty signature, and the
/// returned 1x1 shape would still abort on the first Insert.
LshForestOptions ClampForestToSignature(LshForestOptions f, size_t available_values);

/// \brief On-disk layout of a serialized forest. The engine snapshot
/// version determines which one a file contains; the enum exists because
/// several container formats (engine snapshots, shard files) embed forests
/// and each versions its own magic.
enum class ForestWireFormat {
  kPerEntry,  ///< legacy: per-entry key values + id as u64 (copy-only load)
  kFlat,      ///< flat aligned key/id arrays (zero-copy capable)
};

/// \brief Top-m candidate index over integer-sequence signatures.
///
/// Works for MinHash signatures directly and for bit signatures via
/// RandomProjectionHasher::SignatureAsHashSequence. Signatures must provide
/// at least num_trees * hashes_per_tree values. Lookups (Query,
/// QueryAtDepth, DepthCounts) may run concurrently: their id scratch is per
/// thread and reset after every call.
class LshForest {
 public:
  using ItemId = uint32_t;

  explicit LshForest(LshForestOptions options = {});

  /// Registers an item; call Index() before querying. Inserting into a
  /// forest that borrows a mapping detaches it (copies the arrays) first.
  void Insert(ItemId id, const Signature& signature);

  /// Sorts the trees. Insert/Index may be alternated (Index re-sorts).
  void Index();

  /// Returns up to m item ids whose keys share the longest prefixes with
  /// the query, most-similar-first ordering is NOT guaranteed (callers
  /// re-rank with exact signature distances). The query signature must come
  /// from the same hasher family as the inserted ones.
  std::vector<ItemId> Query(const Signature& signature, size_t m) const;

  /// All items sharing a prefix of at least `min_depth` hash values with
  /// the query in at least one tree (threshold-flavoured lookup).
  std::vector<ItemId> QueryAtDepth(const Signature& signature, size_t min_depth) const;

  /// Distinct-match counts per prefix depth: counts[d-1] is the number of
  /// distinct items sharing a prefix of at least d hash values with the
  /// query in at least one tree, for d in [1, hashes_per_tree]. Counts are
  /// monotone nonincreasing in d, and — because every item lives in exactly
  /// one forest — counts from forests over disjoint item sets (the shards
  /// of src/serving) add element-wise into the counts of the union forest.
  ///
  /// A non-zero `budget` (the m of the StopDepth rule) enables early
  /// termination: the forest descends its nested prefix ranges from the
  /// deepest depth and stops scanning once the cumulative distinct-match
  /// count reaches the budget. Counts at the saturating depth and deeper
  /// are exact; shallower entries are clamped to the count at saturation
  /// (>= budget). Because the stop rule picks the DEEPEST depth with at
  /// least m matches, the clamp can never change StopDepth — locally or
  /// after shard summing: any shard that clamped below depth d certifies
  /// the summed count at d already reaches m, so no shallower depth is
  /// ever consulted. With budget == 0 the full exact histogram is scanned.
  std::vector<size_t> DepthCounts(const Signature& signature, size_t budget = 0) const;

  /// The synchronous-descent stop rule of Query() applied to a (possibly
  /// shard-merged) DepthCounts vector: the deepest depth at which at least
  /// m distinct candidates exist, or 1 when no depth reaches m. Combined
  /// with QueryAtDepth, this reproduces Query's candidate set without the
  /// arbitrary order-dependent truncation to exactly m.
  static size_t StopDepth(const std::vector<size_t>& counts, size_t m);

  size_t size() const { return num_items_; }

  const LshForestOptions& options() const { return options_; }
  size_t num_trees() const { return trees_.size(); }

  /// Number of entries stored in one tree (== size() once every item is
  /// inserted into every tree, i.e. always outside of Insert itself).
  size_t tree_size(size_t tree) const { return trees_[tree].size; }

  /// Read-only view of one tree's key array: tree_size(tree) entries of
  /// hashes_per_tree values each, entry i at [i*hashes_per_tree,
  /// (i+1)*hashes_per_tree). Insertion order before Index(), key-sorted
  /// after. This is the enumeration surface used by Save() and by
  /// diagnostics; it exists so serialization does not need friend access.
  const uint64_t* tree_keys(size_t tree) const { return trees_[tree].keys(); }

  /// Read-only view of one tree's item-id array, parallel to tree_keys().
  const ItemId* tree_ids(size_t tree) const { return trees_[tree].ids(); }

  /// True when any tree borrows its arrays from a snapshot mapping instead
  /// of owning heap copies (diagnostics; zero heap cost in MemoryUsage).
  bool borrows_mapping() const { return storage_ != nullptr; }

  /// Serializes options and all tree arrays (ForestWireFormat::kFlat) into
  /// the writer's current section, 8-byte aligning the arrays so a mapped
  /// reader can serve them in place. The forest should be Index()ed first
  /// so a loaded forest is immediately queryable.
  void Save(io::Writer& w) const;

  /// Deserializes a forest written in `format`. On any read error the
  /// reader's status() is non-OK and the returned forest must be discarded.
  /// When the reader is mapped and the host allows it, a kFlat forest
  /// borrows its arrays straight from the mapping and holds the mapping
  /// alive; otherwise it owns heap copies. kPerEntry reads the legacy
  /// per-entry layout (always copied).
  static LshForest Load(io::Reader& r, ForestWireFormat format = ForestWireFormat::kFlat);

  /// Exact heap footprint in bytes (space-overhead bench): the owned key
  /// and id array capacities plus the tree table. Arrays borrowed from a
  /// mapping cost no heap and count zero — resident cost for those lives in
  /// the (shared, page-cached) mapping.
  size_t MemoryUsage() const;

 private:
  struct Tree {
    std::vector<uint64_t> owned_keys;  ///< size * hashes_per_tree values
    std::vector<ItemId> owned_ids;     ///< size values
    const uint64_t* borrowed_keys = nullptr;  ///< into a mapping, or null
    const ItemId* borrowed_ids = nullptr;
    size_t size = 0;  ///< number of entries
    bool sorted = false;

    const uint64_t* keys() const {
      return borrowed_keys != nullptr ? borrowed_keys : owned_keys.data();
    }
    const ItemId* ids() const {
      return borrowed_ids != nullptr ? borrowed_ids : owned_ids.data();
    }
  };

  // The query's key in `tree`: hashes_per_tree values read in place from
  // the signature (which must pass CheckSignatureSize).
  const uint64_t* TreeKey(size_t tree, const Signature& sig) const;
  // Aborts (in all build types) if the signature is too short for TreeKey.
  void CheckSignatureSize(const Signature& sig) const;
  // Copies borrowed arrays into owned storage so the tree can be mutated.
  void DetachTree(Tree& tree);
  // [lo, hi) of the entries matching the first `depth` key values.
  std::pair<size_t, size_t> PrefixRange(const Tree& tree, const uint64_t* key,
                                        size_t depth) const;

  LshForestOptions options_;
  std::vector<Tree> trees_;
  size_t num_items_ = 0;
  /// Keeps the snapshot mapping alive while any tree borrows from it.
  std::shared_ptr<io::MappedFile> storage_;
};

}  // namespace d3l
