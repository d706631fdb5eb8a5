// Circuit execution with explicit fault sites.
//
// The executor walks the ASAP schedule moment by moment and, at every fault
// location — input, prep output, gate output, measurement input, delay line —
// gives an optional FaultInjector the chance to apply a Pauli error.  The
// site enumeration order is deterministic, which is what lets the analysis
// module plant specific single faults and fault pairs and replay the circuit
// exactly (the paper's "count the potential places for two errors"
// methodology).  The order is circuit::walk()'s (circuit/walk.h).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/backend.h"
#include "circuit/circuit.h"
#include "circuit/schedule.h"
#include "circuit/walk.h"

namespace eqc::circuit {

/// Visitor invoked at every fault site during execution.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  /// May call backend.apply_pauli() to inject an error at this site.
  virtual void visit(const FaultSite& site, Backend& backend) = 0;
};

struct ExecResult {
  std::vector<bool> cbits;
};

/// Runs `circuit` on `backend`; throws if the backend rejects an op.
ExecResult execute(const Circuit& circuit, Backend& backend,
                   FaultInjector* injector = nullptr,
                   const ExecOptions& options = {});

/// Injector that only records the visited sites (used to enumerate the
/// fault locations of a circuit without disturbing it).
class SiteCollector final : public FaultInjector {
 public:
  void visit(const FaultSite& site, Backend&) override {
    sites_.push_back(site);
  }
  const std::vector<FaultSite>& sites() const { return sites_; }

 private:
  std::vector<FaultSite> sites_;
};

/// Injector that applies pre-chosen Paulis at pre-chosen site ordinals.
class PlantedInjector : public FaultInjector {
 public:
  /// `fault` must act only on the site's qubits (checked at visit time).
  void plant(std::size_t ordinal, pauli::PauliString fault);
  void visit(const FaultSite& site, Backend& backend) override;

  /// True iff every planted fault's ordinal was visited by an execution.
  /// A false return means a plant silently did nothing — typically a stale
  /// ordinal kept across a circuit edit; callers should treat it as a bug.
  bool all_planted_visited() const;
  /// Ordinals of plants that were never visited (diagnostics).
  std::vector<std::size_t> unvisited_ordinals() const;

 private:
  std::vector<std::pair<std::size_t, pauli::PauliString>> planted_;
  std::vector<bool> visited_;
};

/// All fault sites of `circuit`, in walk() order — the sites execute()
/// visits.  Reads only the schedule; nothing is simulated.
std::vector<FaultSite> enumerate_fault_sites(const Circuit& circuit,
                                             const ExecOptions& options = {});

}  // namespace eqc::circuit
