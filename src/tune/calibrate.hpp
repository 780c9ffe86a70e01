// Online cost-model calibration: measure a fabric's real β (per-message
// startup), τ (per-byte transfer), and γ (per-byte combine) with a short
// micro-exchange ladder, producing the LinearModel the tuner then prices
// plans with — measured constants instead of the compiled-in machines.
//
// The ladder is a neighbor ring exchange (each rank sends to rank+1 and
// receives from rank-1 per round) over a handful of message sizes, each
// size's cost being the fastest of its individually timed rounds: the
// smallest size is startup-dominated (≈ β), the spread across sizes fits τ
// as a least-squares slope.  γ comes from a local double-accumulate loop —
// no wire traffic, same arithmetic the reduction executor performs.
//
// SPMD discipline: the ladder runs on its own allocated collective tag
// (never consuming tag-0 rounds the caller's collectives will use), every
// rank participates, and rank 0 fits the model and broadcasts the three
// constants over a binomial tree so all ranks hold a *bit-identical*
// model — divergent constants would give divergent tuner keys and picks.
#pragma once

#include <string>

#include "model/linear_model.hpp"
#include "mps/communicator.hpp"

namespace bruck::tune {

struct CalibrateOptions {
  /// Repetitions at the smallest ladder size; larger sizes run fewer
  /// (cost-bounded), never below 2.
  int base_reps = 24;
};

struct Calibration {
  /// Measured machine (name = the fabric label passed in).  When
  /// `measured` is false this is the compiled-in default, untouched.
  model::LinearModel machine;
  /// Ladder sizes actually timed (0 when calibration was skipped).
  int ladder_points = 0;
  /// False when calibration was skipped: single rank (nothing to
  /// exchange) or a non-native port engine (a wrapper fabric whose
  /// deferred engine can't host an extra tag).
  bool measured = false;
};

/// Run the ladder on `comm`.  Collective: every rank of the communicator
/// must call it at the same point in the program.
[[nodiscard]] Calibration calibrate(mps::Communicator& comm,
                                    const std::string& fabric_name = "local",
                                    const CalibrateOptions& options = {});

}  // namespace bruck::tune
