#include "api/predictor_factory.hpp"

#include <string_view>
#include <utility>

#include "common/name_table.hpp"
#include "prefetch/fpa.hpp"
#include "prefetch/nexus.hpp"
#include "prefetch/probability_graph.hpp"
#include "prefetch/sd_graph.hpp"
#include "prefetch/successor.hpp"

namespace farmer {

namespace {

using Build = std::unique_ptr<Predictor> (*)(
    const FarmerConfig& cfg, std::shared_ptr<const TraceDictionary> dict,
    const PredictorOptions& opts);

/// A baseline built from its own defaults; it ignores cfg, dict and opts.
template <class P>
std::unique_ptr<Predictor> baseline(const FarmerConfig&,
                                    std::shared_ptr<const TraceDictionary>,
                                    const PredictorOptions&) {
  return std::make_unique<P>();
}

template <ContextualLastSuccessorPredictor::Mode M>
std::unique_ptr<Predictor> contextual(const FarmerConfig&,
                                      std::shared_ptr<const TraceDictionary>,
                                      const PredictorOptions&) {
  return std::make_unique<ContextualLastSuccessorPredictor>(M);
}

// Adding a predictor means adding a row here. Each must honor the
// Predictor contracts (prefetch/predictor.hpp): predict() never proposes
// the demanded file itself, flush() is a real ingest barrier when the
// predictor mines asynchronously, and footprint_bytes() reports its actual
// state.
const NameTable<Build>& predictors() {
  static const NameTable<Build> table("predictor", {
    {"fpa",
     [](const FarmerConfig& cfg, std::shared_ptr<const TraceDictionary> dict,
        const PredictorOptions& opts) -> std::unique_ptr<Predictor> {
       // The miner factory re-validates cfg and resolves the backend name;
       // its std::invalid_argument carries the registered-miners listing.
       const std::string_view backend =
           opts.miner_backend.empty() ? std::string_view("farmer")
                                      : std::string_view(opts.miner_backend);
       return std::make_unique<FpaPredictor>(
           make_miner(backend, cfg, std::move(dict), opts.miner));
     }},
    {"nexus", &baseline<NexusPredictor>},
    {"probgraph", &baseline<ProbabilityGraphPredictor>},
    {"sdgraph", &baseline<SdGraphPredictor>},
    {"ls", &baseline<LastSuccessorPredictor>},
    {"fs", &baseline<FirstSuccessorPredictor>},
    {"recentpop", &baseline<RecentPopularityPredictor>},
    {"pbs", &contextual<ContextualLastSuccessorPredictor::Mode::kProgram>},
    {"puls",
     &contextual<ContextualLastSuccessorPredictor::Mode::kProgramUser>},
    {"none", &baseline<NoopPredictor>},
  });
  return table;
}

}  // namespace

std::vector<std::string> registered_predictors() {
  return predictors().names();
}

std::unique_ptr<Predictor> make_predictor(
    std::string_view name, const FarmerConfig& cfg,
    std::shared_ptr<const TraceDictionary> dict,
    const PredictorOptions& opts) {
  return predictors().at(name)(cfg, std::move(dict), opts);
}

}  // namespace farmer
