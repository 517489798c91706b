#include "engine/engine.h"

#include <utility>

namespace recnet {

StatusOr<std::unique_ptr<Engine>> Engine::Compile(
    const std::string& source, const EngineOptions& options) {
  SessionOptions session_options;
  session_options.num_nodes = options.num_nodes;
  session_options.num_physical = options.runtime.num_physical;
  // Deployment-shape knobs ride in RuntimeOptions for the one-program
  // facade; the session underneath owns the actual substrate, so they must
  // be forwarded or a sharded/faulty Engine silently runs a 1-shard,
  // fault-free drain.
  session_options.shards = options.runtime.shards;
  session_options.faults = options.runtime.faults;
  auto session = std::make_unique<Session>(session_options);
  StatusOr<View*> view = session->AddProgram(source, options);
  if (!view.ok()) return view.status();
  return std::unique_ptr<Engine>(
      new Engine(std::move(session), view.value()));
}

}  // namespace recnet
