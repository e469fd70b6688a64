// The four LSH indexes of D3L (IN, IV, IF, IE — Section III-B) plus the
// attribute registry they index into.
//
// Each index pairs an LSH Forest (top-m candidate retrieval) with a banded
// threshold index (membership lookups at the configured tau, used by the
// Algorithm-2 guards and the SA-join graph). Signatures are retained so
// distances between any two indexed/query attributes can be estimated
// without touching raw extents.
#pragma once

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/attribute_profile.h"
#include "core/evidence.h"
#include "io/binary_io.h"
#include "lsh/lsh_banding.h"
#include "lsh/lsh_forest.h"
#include "lsh/minhash.h"
#include "lsh/simhash.h"

namespace d3l::core {

struct IndexOptions {
  size_t minhash_size = 256;   ///< MinHash signature size (paper: 256)
  double lsh_threshold = 0.7;  ///< tau for threshold lookups (paper: 0.7)
  /// Jaccard threshold of the auxiliary IV index used for SA-join
  /// discovery. Join candidates are containment-flavoured (a small tset
  /// included in a large one has a high overlap coefficient but a modest
  /// Jaccard), so this sits well below lsh_threshold; candidates are then
  /// filtered on the estimated overlap coefficient (Section IV's bound).
  double join_threshold = 0.45;
  size_t rp_bits = 256;        ///< random-projection signature bits
  size_t embedding_dim = 64;   ///< WEM dimensionality p
  LshForestOptions forest;     ///< trees * hashes_per_tree <= minhash_size
  uint64_t seed = 0xd31a5eed;

  bool operator==(const IndexOptions&) const = default;
};

/// \brief The signatures of one attribute under all four hashing schemes.
struct AttributeSignatures {
  Signature name_sig;    ///< MinHash of the qset
  Signature value_sig;   ///< MinHash of the tset (empty for numeric attrs)
  Signature format_sig;  ///< MinHash of the rset
  BitSignature emb_sig;  ///< random projections of the embedding vector
  bool has_value = false;
  bool has_embedding = false;

  /// Serializes all signatures into the writer's current section.
  void Save(io::Writer& w) const;

  /// Deserializes signatures written by Save(); check the reader's
  /// status() before use.
  static AttributeSignatures Load(io::Reader& r);
};

/// \brief True when `s` has the shape signatures signed under `options`
/// have: minhash_size values per MinHash signature (the value signature
/// only when present) and rp_bits bits in the embedding signature. Index
/// lookups and distance estimates read signatures at these sizes without
/// further checks, so every signature from outside the process (a snapshot,
/// an RPC request) must pass this first.
bool SignatureShapeMatches(const AttributeSignatures& s, const IndexOptions& options);

/// \brief Key length (maximum prefix depth) of the LSH Forest behind one
/// evidence type under `options`; 0 for distribution evidence, which has no
/// forest. Stop depths above it index past a forest key.
size_t ForestDepth(const IndexOptions& options, Evidence e);

/// \brief Attribute registry + IN/IV/IF/IE. Insertion is Algorithm 1.
class D3LIndexes {
 public:
  explicit D3LIndexes(IndexOptions options = {});

  const IndexOptions& options() const { return options_; }

  /// Registers an attribute: computes signatures and inserts them into the
  /// four indexes (Algorithm 1 lines 15-18). Returns the attribute id.
  uint32_t Insert(AttributeProfile profile);

  /// Sorts the forests and the banded threshold indexes; must be called
  /// after the last Insert and before any lookup.
  void Finalize();

  size_t num_attributes() const { return profiles_.size(); }
  const AttributeProfile& profile(uint32_t id) const { return profiles_[id]; }
  const AttributeSignatures& signatures(uint32_t id) const { return sigs_[id]; }

  /// Computes query signatures for a non-inserted profile (target attrs).
  AttributeSignatures Sign(const AttributeProfile& profile) const;

  /// Top-m candidates from one evidence index. Indexes without evidence for
  /// the query (e.g. IV for a numeric target) return empty.
  std::vector<uint32_t> Lookup(Evidence e, const AttributeSignatures& query,
                               size_t m) const;

  /// Distinct-candidate counts per LSH-Forest prefix depth for one evidence
  /// index (LshForest::DepthCounts). Returns an empty vector when the query
  /// lacks the evidence. Counts of engines over disjoint attribute sets
  /// (src/serving shards) add element-wise, which is what makes the Search
  /// stop depths exactly reproducible under sharding. A non-zero `budget`
  /// enables the forest's early-terminated scan (exact at and below the
  /// stop depth; see LshForest::DepthCounts).
  std::vector<size_t> LookupDepthCounts(Evidence e, const AttributeSignatures& query,
                                        size_t budget = 0) const;

  /// All candidates of one evidence index matching the query at a prefix
  /// depth of at least `min_depth` (LshForest::QueryAtDepth). Returns empty
  /// when the query lacks the evidence or min_depth is 0.
  std::vector<uint32_t> LookupAtDepth(Evidence e, const AttributeSignatures& query,
                                      size_t min_depth) const;

  /// Threshold membership: ids whose signature collides with the query in
  /// the banded index at tau (the paper's "a' in IN.lookup(a)" relation).
  std::vector<uint32_t> LookupThreshold(Evidence e,
                                        const AttributeSignatures& query) const;

  /// IV lookup at the (lower) join threshold — SA-join candidate retrieval.
  std::vector<uint32_t> LookupValueJoin(const AttributeSignatures& query) const;

  /// Estimated distance of one evidence type between a query attribute and
  /// an indexed attribute; 1.0 when evidence is missing on either side.
  /// Evidence::kDistribution is not served here (see distance.h).
  double EstimateDistance(Evidence e, const AttributeSignatures& query,
                          uint32_t id) const;

  size_t MemoryUsage() const;

  /// Wall time the last Load() spent deserializing the four forests — the
  /// array-materialization component that a mapped kFlat reader collapses
  /// to pointer fixups. Zero for indexes built in process. The banded
  /// replay and profile/signature decode are deliberately excluded: they
  /// cost the same under either load mode.
  double forest_parse_seconds() const { return forest_parse_seconds_; }

  /// Wall time the last Load() spent rebuilding the banded threshold
  /// indexes: the replay of Insert() from the saved signatures plus their
  /// Index() sort. Zero for indexes built in process.
  double threshold_index_seconds() const { return threshold_index_seconds_; }

  /// Serializes options, profiles, signatures and the four LSH forests into
  /// the writer's current section. The banded threshold indexes are not
  /// written: Load() rebuilds them deterministically from the saved
  /// signatures (band hashing plus one sort per band, a small share of an
  /// open; see threshold_index_seconds()).
  void Save(io::Writer& w) const;

  /// Deserializes indexes written by Save(). `forest_format` names the
  /// layout the embedded forests were written in (the engine snapshot
  /// version determines it; current snapshots are kFlat, v1 snapshots
  /// kPerEntry). Under a mapped reader the kFlat forests borrow the mapping
  /// instead of copying their arrays. Fails with a non-OK Status on
  /// truncated payloads, structural inconsistencies (e.g. signature sizes
  /// that contradict the saved options) or reader errors.
  static Result<D3LIndexes> Load(
      io::Reader& r, ForestWireFormat forest_format = ForestWireFormat::kFlat);

 private:
  IndexOptions options_;
  MinHasher name_hasher_;
  MinHasher value_hasher_;
  MinHasher format_hasher_;
  RandomProjectionHasher rp_hasher_;

  LshForest name_forest_;
  LshForest value_forest_;
  LshForest format_forest_;
  LshForest emb_forest_;

  BandedLsh name_banded_;
  BandedLsh value_banded_;
  BandedLsh format_banded_;
  BandedLsh emb_banded_;
  BandedLsh value_join_banded_;  ///< IV at join_threshold (Section IV)

  std::vector<AttributeProfile> profiles_;
  std::vector<AttributeSignatures> sigs_;

  double forest_parse_seconds_ = 0;     ///< see forest_parse_seconds()
  double threshold_index_seconds_ = 0;  ///< see threshold_index_seconds()
};

}  // namespace d3l::core
