#ifndef SEQFM_DATA_SYNTHETIC_H_
#define SEQFM_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>

#include "data/interaction.h"
#include "util/result.h"
#include "util/rng.h"

namespace seqfm {
namespace data {

/// \brief Parameters of the synthetic temporal-interaction generator.
///
/// The generator plants exactly the causal structure the paper's claims are
/// about (see README.md, "Departures from the paper"):
///   * objects belong to latent clusters with Zipf popularity inside each
///     cluster (power-law object frequency as in the real logs);
///   * each user has a static cluster-preference distribution (recoverable
///     by any FM via the user x object interaction);
///   * each object has a small *successor set* drawn from the next cluster
///     on a ring; the next object is sampled from a mixture of (a) the
///     user's static cluster preference, (b) the successors of the *last*
///     objects in a recent window (last-item models like TFM capture only
///     the window's newest slot; full-sequence readers capture all of it),
///     and (c) the successors of the object visited `long_lag` steps
///     earlier (recoverable only by models that read the
///     whole ordered sequence, e.g. SeqFM / SASRec). Crucially, the
///     *identity* of the last object cannot be inferred from the unordered
///     history set, so set-category FMs cannot exploit (b) or (c);
///   * regression ratings combine user/object biases, static affinity and a
///     sequence-consistency term plus noise.
struct SyntheticConfig {
  std::string name = "synthetic";
  size_t num_users = 200;
  size_t num_objects = 300;
  size_t num_clusters = 10;
  size_t min_seq_len = 10;
  size_t max_seq_len = 30;
  double zipf_exponent = 0.5;
  /// Mixture weights over next-object sources; they need not sum to 1
  /// (normalized internally). `noise` adds a uniform component.
  double w_static = 0.25;
  double w_markov = 0.45;
  double w_long = 0.15;
  double noise = 0.15;
  size_t long_lag = 4;
  /// The Markov source picks an item among the last `markov_window` items
  /// (only 25% of the mass on the very last one — the paper's Fig. 1
  /// delayed-intent scenario) and emits one of its successors. A window of
  /// 1 degenerates to the pure last-item process (TFM's exact inductive
  /// bias); wider windows reward models that attend over the whole recent
  /// sequence.
  size_t markov_window = 3;
  /// Number of designated successor objects per object (drawn from the next
  /// cluster on the ring).
  size_t successors_per_object = 3;
  bool with_ratings = false;
  double rating_noise = 0.45;
  uint64_t seed = 42;
};

/// \brief Generates InteractionLogs from a SyntheticConfig.
class SyntheticDatasetGenerator {
 public:
  explicit SyntheticDatasetGenerator(SyntheticConfig config)
      : config_(std::move(config)) {}

  /// Generates the full log (already finalized). Deterministic in the seed.
  Result<InteractionLog> Generate() const;

  const SyntheticConfig& config() const { return config_; }

  /// Named presets mirroring the paper's six datasets (Table I) at reduced
  /// scale: "gowalla", "foursquare" (ranking), "trivago", "taobao"
  /// (classification), "beauty", "toys" (regression, with ratings).
  /// \p scale multiplies the user count (1.0 = default size).
  static Result<SyntheticConfig> Preset(const std::string& name,
                                        double scale = 1.0);

  /// All preset names in Table I order.
  static const std::vector<std::string>& PresetNames();

 private:
  SyntheticConfig config_;
};

}  // namespace data
}  // namespace seqfm

#endif  // SEQFM_DATA_SYNTHETIC_H_
