// Automatic round elimination over LCL problem descriptions.
//
// The Ω(log log n) / Ω(log n) lower bounds the paper builds on (Brandt et
// al. [1]) come from a syntactic operator on problem descriptions: on
// (d_A, d_P)-biregular trees a problem Π is given by half-edge labels Σ, a
// multiset constraint A on active nodes (degree d_A) and P on passive nodes
// (degree d_P). One elimination step R(Π) swaps the roles:
//
//   * new labels: non-empty subsets of Σ;
//   * new active configurations (the old passive side): tuples of subsets
//     (S_1,…,S_{d_P}) such that EVERY choice s_i ∈ S_i satisfies P,
//     restricted to maximal tuples (no S_i can grow);
//   * new passive configurations: tuples (S_1,…,S_{d_A}) over the surviving
//     labels such that SOME choice s_i ∈ S_i satisfies A.
//
// If a problem needs t rounds, R(Π) needs t-1; a problem isomorphic to its
// own second elimination R(R(Π)) and not 0-round solvable therefore has no
// o(log* n)-type upper bound from this method alone — sinkless orientation
// is the canonical fixed point, which bench_roundelim certifies
// mechanically, exactly the engine behind the paper's Theorem 4 lemmas.
//
// Two implementations of the operator live here (DESIGN.md §7):
//
//   * round_eliminate — the packed kernel: configurations as single
//     uint64_t keys in sorted flat vectors, maximal ∀-tuples found directly
//     by a pruned antichain search (the ∀-property is downward-closed in
//     every coordinate), the ∃-pass as a bitmask matching DP, and both
//     passes fanned across the shared thread pool with deterministic
//     chunk-ordered merges — output is bit-identical at every thread count.
//   * round_eliminate_reference — the original enumerate-then-filter
//     prototype, kept verbatim as the differential-testing oracle.
#pragma once

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace ckp {

// A problem on (active_degree, passive_degree)-biregular trees.
// Configurations are sorted label-index multisets.
struct BipartiteProblem {
  int active_degree = 0;
  int passive_degree = 0;
  std::vector<std::string> label_names;
  std::set<std::vector<int>> active;
  std::set<std::vector<int>> passive;

  int num_labels() const { return static_cast<int>(label_names.size()); }

  // Structural sanity: degrees positive, configuration sizes match, label
  // indices in range.
  void validate() const;
};

// Enumerates all sorted multisets of size `size` over [0, universe) in
// colex order. `size == 0` yields exactly one (empty) multiset; a
// `universe <= 0` with `size > 0` yields none (there is no label to place —
// the unguarded seed version spun forever emitting out-of-range slots).
void enumerate_multisets(int universe, int size,
                         const std::function<void(const std::vector<int>&)>& f);

// One elimination step R(Π) (roles swap: the result's active degree is Π's
// passive degree). Throws CheckFailure if the label universe would exceed
// `max_labels` (round elimination can blow up doubly exponentially).
//
// The packed kernel handles up to 64 labels and degrees up to 8 (the packed
// representation is 8 one-byte slots); outside that envelope it falls back
// to round_eliminate_reference and its ≤20-label bound. `threads <= 0`
// means default_engine_threads(); any thread count produces bit-identical
// output.
BipartiteProblem round_eliminate(const BipartiteProblem& p,
                                 int max_labels = 64, int threads = 0);

// The seed brute-force implementation (std::set<std::vector<int>>
// configurations, full enumerate-then-filter passes, ≤20 labels). Kept as
// the oracle for differential tests and the bench's speedup baseline.
BipartiteProblem round_eliminate_reference(const BipartiteProblem& p,
                                           int max_labels = 64);

// Exact structural equality — degrees, label names, and both configuration
// sets. Stronger than isomorphism; used by the differential tests to pin
// the packed kernel to the reference output label-for-label.
bool problems_identical(const BipartiteProblem& a, const BipartiteProblem& b);

// True iff a and b are identical up to a bijective relabeling. Labels are
// first partitioned by invariant signatures (occurrence counts per side and
// multiplicity); the backtracking search only matches labels with equal
// signatures and prunes with pairwise co-occurrence counts, so the old
// 8-label k! cap is gone (problems in the dozens of labels are fine).
bool problems_isomorphic(const BipartiteProblem& a, const BipartiteProblem& b);

// The 0-round criterion on port-numbered biregular trees: some active
// configuration C exists such that EVERY d_P-multiset over the labels of C
// is passive-allowed (all active nodes output C; a passive node can then see
// any combination of C's labels).
bool zero_round_solvable(const BipartiteProblem& p);

// Sinkless orientation on Δ-regular trees in the natural encoding:
// vertices active (degree Δ, at least one outgoing half-edge "O"), edges
// passive (degree 2, exactly one "O" and one incoming "I" end). One double
// elimination step rewrites this into the canonical form below.
BipartiteProblem sinkless_orientation_problem(int delta);

// The canonical round-elimination presentation of sinkless orientation
// ("M U…U" in the round-eliminator literature): vertices commit exactly one
// designated out-edge M, edges forbid two M ends. Semantically equivalent to
// sinkless_orientation_problem and an exact fixed point of the double
// elimination step R∘R — the certificate behind the Ω-bounds of Section IV.
BipartiteProblem sinkless_orientation_canonical(int delta);

// A trivially solvable toy problem (every configuration allowed) used as
// the collapsing control in tests and benches.
BipartiteProblem free_problem(int active_degree, int passive_degree,
                              int labels);

// Test seams into the packed kernel's inner passes. Each reruns one pass of
// R(p) sequentially on the same thread_local scratch the kernel itself uses
// and returns only a count, so a caller can warm the buffers with one call
// and then certify — via AssertNoAlloc — that a repeat performs zero heap
// allocations (the "allocation-free inner passes" claim of DESIGN.md §7).
// `p` must fit the packed envelope (≤64 labels, degrees ≤8).
namespace roundelim_detail {

// Maximal ∀-tuple count of one elimination step == |R(p).active|.
std::size_t forall_pass_tuple_count(const BipartiteProblem& p);

// ∃-pass hit count over the surviving labels == |R(p).passive|.
std::size_t exists_pass_hit_count(const BipartiteProblem& p);

}  // namespace roundelim_detail

}  // namespace ckp
