// Update-handling demo (§7.2 of the paper): an UpdatableSetIndex absorbs
// set mutations into its auxiliary structure without retraining, tracks when
// a rebuild is worthwhile, and retrains on demand. Background rebuilds are
// off, so the demo is single-threaded and deterministic.
//
// Usage:  ./build/examples/updates_demo

#include <cstdio>
#include <vector>

#include "core/updatable.h"
#include "sets/generators.h"

int main() {
  los::sets::RwConfig cfg;
  cfg.num_sets = 1000;
  cfg.num_unique = 150;
  auto collection = GenerateRw(cfg);
  const size_t num_sets = collection.size();
  std::printf("Indexed %zu server-log sets\n", num_sets);

  los::core::UpdatableSetIndex::Options opts;
  opts.index.train.epochs = 20;
  opts.index.train.loss = los::core::LossKind::kMse;
  opts.index.max_subset_size = 3;
  opts.update.rebuild_after_absorbed = 50;
  opts.update.background_rebuild = false;
  auto index =
      los::core::UpdatableSetIndex::Build(std::move(collection), opts);
  if (!index.ok()) {
    std::printf("build failed: %s\n", index.status().ToString().c_str());
    return 1;
  }
  los::core::UpdatableSetIndex& live = **index;

  // Stream of updates: sets get replaced with new content, including
  // elements the model has never embedded.
  los::Rng rng(7);
  size_t updates = 0;
  while (!live.NeedsRebuild() && updates < 200) {
    size_t position = rng.Uniform(num_sets);
    std::vector<los::sets::ElementId> fresh;
    size_t n = 2 + rng.Uniform(4);
    for (size_t i = 0; i < n; ++i) {
      fresh.push_back(
          static_cast<los::sets::ElementId>(1000 + rng.Uniform(100)));
    }
    if (!live.Update(position, fresh).ok()) break;
    ++updates;

    // The updated set stays queryable immediately.
    los::sets::SetView q(fresh.data(), 1);
    if (live.Lookup(q) < 0) {
      std::printf("lookup after update %zu unexpectedly failed!\n", updates);
      return 1;
    }
  }
  // The serving generation is a copy of the writer-side index, so it
  // reports the same absorbed-subset count the rebuild trigger reads.
  {
    auto pin = live.Acquire();
    const size_t absorbed = pin->index->updates_absorbed();
    std::printf("applied %zu updates; generation %llu's auxiliary structure "
                "absorbed %zu subsets\n",
                updates, static_cast<unsigned long long>(pin.generation()),
                absorbed);
    if (absorbed != live.engine()->pending_absorbed()) {
      std::printf("serving generation lost absorbed updates (engine counted "
                  "%llu)!\n",
                  static_cast<unsigned long long>(
                      live.engine()->pending_absorbed()));
      return 1;
    }
  }

  if (live.NeedsRebuild()) {
    std::printf("rebuild threshold reached -> retraining...\n");
    if (auto st = live.RebuildNow(); !st.ok()) {
      std::printf("rebuild failed: %s\n", st.ToString().c_str());
      return 1;
    }
    auto pin = live.Acquire();
    std::printf("rebuilt generation %llu: aux structure reset to %zu "
                "outliers, %zu absorbed subsets\n",
                static_cast<unsigned long long>(pin.generation()),
                pin->index->num_outliers(), pin->index->updates_absorbed());
  } else {
    std::printf("rebuild not needed yet\n");
  }
  return 0;
}
