#include "core/roundelim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "core/roundelim_packed.hpp"
#include "util/thread_pool.hpp"

namespace ckp {

void enumerate_multisets(int universe, int size,
                         const std::function<void(const std::vector<int>&)>& f) {
  CKP_CHECK(size >= 0);
  if (size == 0) {  // exactly one empty multiset, regardless of universe
    f({});
    return;
  }
  if (universe <= 0) return;  // no label to place — no multisets at all
  std::vector<int> current(static_cast<std::size_t>(size), 0);
  while (true) {
    f(current);
    // Next multiset in colex order: increment rightmost incrementable slot.
    int i = size - 1;
    while (i >= 0 && current[static_cast<std::size_t>(i)] == universe - 1) --i;
    if (i < 0) break;
    const int next = current[static_cast<std::size_t>(i)] + 1;
    for (int j = i; j < size; ++j) current[static_cast<std::size_t>(j)] = next;
  }
}

namespace {

// Does every choice (s_1..s_k), s_i ∈ sets[i], form a multiset in `allowed`?
bool forall_choices_in(const std::vector<std::vector<int>>& sets,
                       const std::set<std::vector<int>>& allowed) {
  std::vector<std::size_t> idx(sets.size(), 0);
  std::vector<int> choice(sets.size());
  while (true) {
    for (std::size_t i = 0; i < sets.size(); ++i) {
      choice[i] = sets[i][idx[i]];
    }
    std::vector<int> sorted = choice;
    std::sort(sorted.begin(), sorted.end());
    if (!allowed.contains(sorted)) return false;
    std::size_t carry = 0;
    while (carry < sets.size() && ++idx[carry] == sets[carry].size()) {
      idx[carry] = 0;
      ++carry;
    }
    if (carry == sets.size()) return true;
  }
}

// Does some choice land in `allowed`?
bool exists_choice_in(const std::vector<std::vector<int>>& sets,
                      const std::set<std::vector<int>>& allowed) {
  std::vector<std::size_t> idx(sets.size(), 0);
  std::vector<int> choice(sets.size());
  while (true) {
    for (std::size_t i = 0; i < sets.size(); ++i) {
      choice[i] = sets[i][idx[i]];
    }
    std::vector<int> sorted = choice;
    std::sort(sorted.begin(), sorted.end());
    if (allowed.contains(sorted)) return true;
    std::size_t carry = 0;
    while (carry < sets.size() && ++idx[carry] == sets[carry].size()) {
      idx[carry] = 0;
      ++carry;
    }
    if (carry == sets.size()) return false;
  }
}

std::string subset_name(const BipartiteProblem& p, std::uint64_t mask) {
  std::string out = "{";
  bool first = true;
  for (int l = 0; l < p.num_labels(); ++l) {
    if (mask & (1ULL << l)) {
      if (!first) out += ',';
      out += p.label_names[static_cast<std::size_t>(l)];
      first = false;
    }
  }
  out += '}';
  return out;
}

std::vector<int> subset_members(std::uint64_t mask) {
  std::vector<int> out;
  for (int l = 0; l < 64; ++l) {
    if (mask & (1ULL << l)) out.push_back(l);
  }
  return out;
}

}  // namespace

void BipartiteProblem::validate() const {
  CKP_CHECK(active_degree >= 1 && passive_degree >= 1);
  CKP_CHECK(!label_names.empty());
  for (const auto& cfg : active) {
    CKP_CHECK(cfg.size() == static_cast<std::size_t>(active_degree));
    CKP_CHECK(std::is_sorted(cfg.begin(), cfg.end()));
    for (int l : cfg) CKP_CHECK(l >= 0 && l < num_labels());
  }
  for (const auto& cfg : passive) {
    CKP_CHECK(cfg.size() == static_cast<std::size_t>(passive_degree));
    CKP_CHECK(std::is_sorted(cfg.begin(), cfg.end()));
    for (int l : cfg) CKP_CHECK(l >= 0 && l < num_labels());
  }
}

BipartiteProblem round_eliminate_reference(const BipartiteProblem& p,
                                           int max_labels) {
  p.validate();
  CKP_CHECK_MSG(p.num_labels() <= 20,
                "round elimination on >20 labels is intractable here");
  const std::uint64_t universe = (1ULL << p.num_labels()) - 1;

  // Candidate new-active configurations: multisets of non-empty subsets of
  // size passive_degree with the ∀ property, then maximality filtering.
  std::vector<std::uint64_t> subsets;
  for (std::uint64_t m = 1; m <= universe; ++m) subsets.push_back(m);

  std::set<std::vector<int>> forall_ok;  // over subset indices
  enumerate_multisets(
      static_cast<int>(subsets.size()), p.passive_degree,
      [&](const std::vector<int>& cfg) {
        std::vector<std::vector<int>> sets;
        sets.reserve(cfg.size());
        for (int si : cfg) {
          sets.push_back(subset_members(subsets[static_cast<std::size_t>(si)]));
        }
        if (forall_choices_in(sets, p.passive)) {
          forall_ok.insert(cfg);
        }
      });

  // Maximality: drop cfg if replacing one slot's subset by a strict superset
  // keeps the ∀ property.
  std::set<std::vector<int>> maximal;
  for (const auto& cfg : forall_ok) {
    bool is_maximal = true;
    for (std::size_t slot = 0; slot < cfg.size() && is_maximal; ++slot) {
      const std::uint64_t cur = subsets[static_cast<std::size_t>(cfg[slot])];
      for (std::size_t bigger = 0; bigger < subsets.size(); ++bigger) {
        const std::uint64_t candidate = subsets[bigger];
        if (candidate == cur || (candidate & cur) != cur) continue;
        std::vector<int> enlarged = cfg;
        enlarged[slot] = static_cast<int>(bigger);
        std::sort(enlarged.begin(), enlarged.end());
        if (forall_ok.contains(enlarged)) {
          is_maximal = false;
          break;
        }
      }
    }
    if (is_maximal) maximal.insert(cfg);
  }

  // Labels that actually appear.
  std::set<int> used;
  for (const auto& cfg : maximal) {
    for (int si : cfg) used.insert(si);
  }
  CKP_CHECK_MSG(!used.empty(), "round elimination produced the empty problem");
  CKP_CHECK_MSG(static_cast<int>(used.size()) <= max_labels,
                "round elimination exceeded " << max_labels << " labels");

  std::map<int, int> rename;
  BipartiteProblem out;
  out.active_degree = p.passive_degree;  // roles swap
  out.passive_degree = p.active_degree;
  for (int si : used) {
    rename[si] = static_cast<int>(out.label_names.size());
    out.label_names.push_back(
        subset_name(p, subsets[static_cast<std::size_t>(si)]));
  }
  for (const auto& cfg : maximal) {
    std::vector<int> renamed;
    renamed.reserve(cfg.size());
    for (int si : cfg) renamed.push_back(rename.at(si));
    std::sort(renamed.begin(), renamed.end());
    out.active.insert(renamed);
  }

  // New passive side: ∃ over the old active constraint, over used labels.
  std::vector<int> used_list(used.begin(), used.end());
  enumerate_multisets(
      static_cast<int>(used_list.size()), p.active_degree,
      [&](const std::vector<int>& cfg) {
        std::vector<std::vector<int>> sets;
        sets.reserve(cfg.size());
        for (int i : cfg) {
          sets.push_back(subset_members(
              subsets[static_cast<std::size_t>(used_list[static_cast<std::size_t>(i)])]));
        }
        if (exists_choice_in(sets, p.active)) {
          std::vector<int> renamed;
          renamed.reserve(cfg.size());
          for (int i : cfg) {
            renamed.push_back(
                rename.at(used_list[static_cast<std::size_t>(i)]));
          }
          std::sort(renamed.begin(), renamed.end());
          out.passive.insert(renamed);
        }
      });

  out.validate();
  return out;
}

// ---------------------------------------------------------------------------
// Packed kernel (DESIGN.md §7).
// ---------------------------------------------------------------------------

namespace {

using packedcfg::Key;

// Sorted, deduplicated flat vector of packed configuration keys. Iterating a
// std::set<std::vector<int>> of uniform-size sorted vectors visits them in
// lexicographic = packed-numeric order, so the keys arrive pre-sorted.
struct PackedSet {
  std::vector<Key> keys;

  bool contains(Key k) const {
    const auto it = std::lower_bound(keys.begin(), keys.end(), k);
    return it != keys.end() && *it == k;
  }
};

void pack_set(const std::set<std::vector<int>>& cfgs, PackedSet& out) {
  out.keys.clear();
  out.keys.reserve(cfgs.size());
  for (const auto& cfg : cfgs) out.keys.push_back(packedcfg::pack(cfg));
}

bool contains_sorted(const std::vector<Key>& v, Key k) {
  const auto it = std::lower_bound(v.begin(), v.end(), k);
  return it != v.end() && *it == k;
}

// The largest m with m ⊆ s and m <= p (0 when none besides the empty set).
std::uint64_t largest_submask_at_most(std::uint64_t s, std::uint64_t p) {
  std::uint64_t m = 0;
  for (int bit = 63; bit >= 0; --bit) {
    const std::uint64_t b = 1ULL << bit;
    if (p & b) {
      if (s & b) {
        m |= b;  // match p's bit — still tight
      } else {
        return m | (s & (b - 1));  // strictly below p from here on
      }
    }
    // p lacks this bit: taking it would overshoot while tight — skip.
  }
  return m;
}

// Antichain search for the maximal ∀-tuples of one elimination step.
//
// A tuple (S_1..S_d) of non-empty label subsets has the ∀-property when
// every per-slot choice lands in the passive set P; the property is
// downward-closed in every coordinate, so the new active side is exactly
// the antichain of maximal tuples. The search walks canonical tuples
// (masks non-increasing slot to slot) depth-first. Its state per depth is
// the *completion set*
//
//   C_i = { e : r ∪ e ∈ P for every choice r of the prefix S_1..S_i },
//
// a sorted flat vector of packed size-(d−i) multisets, advanced by the
// incremental recurrence
//
//   e ∈ C_{i+1}  ⟺  e + l ∈ C_i for every label l ∈ S_{i+1}
//
// (a choice of the prefix-plus-slot factors as a prefix choice plus one
// slot label), starting from C_0 = P. One step costs |C_i| erase-ones plus
// |S_{i+1}| binary searches each — P is never rescanned and nothing is
// hashed or re-sorted (removing a fixed label preserves key order).
//
// The completion sets drive every decision:
//
//   * feasibility — C_{i+1} empty kills the subtree (downward closure lets
//     singleton completions stand in for arbitrary suffixes);
//   * dominance — growing the slot by label g has completion set
//     { e ∈ C_{i+1} : e + g ∈ C_i }; if that equals C_{i+1}, every
//     completion of this prefix also completes the strictly larger one, so
//     no maximal tuple lives below — |C_{i+1}| binary searches to test;
//   * leaf ∀-check — C_d = {∅} nonempty iff the full tuple is ∀-OK;
//   * maximality — the authoritative single-label-growth check (equivalent
//     to the reference's strict-superset filter, again by downward
//     closure) refolds C from the grown slot along the stored path.
//
// Branching is restricted to the labels occurring in the current C_i: a
// slot label no completion contains fails the recurrence immediately, so
// those masks are infeasible and skipping them changes nothing.
//
// All working buffers live in a per-thread SearchScratch, so after the
// first elimination on a thread the search runs allocation-free.
struct SearchScratch {
  std::vector<std::vector<Key>> comps;
  std::vector<std::uint64_t> supps;
  std::vector<std::uint64_t> path;
  std::vector<std::uint64_t> out;
  std::vector<std::vector<Key>> suffix;
};

SearchScratch& search_scratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

class ForallSearch {
 public:
  ForallSearch(const PackedSet& passive, int degree, std::uint64_t support,
               SearchScratch& scratch)
      : d_(degree),
        comps_(scratch.comps),
        supps_(scratch.supps),
        path_(scratch.path),
        out_(scratch.out),
        suffix_(scratch.suffix) {
    // Only ever grown, so capacities persist across eliminations.
    if (comps_.size() < static_cast<std::size_t>(d_) + 1) {
      comps_.resize(static_cast<std::size_t>(d_) + 1);
    }
    if (suffix_.size() < static_cast<std::size_t>(d_)) {
      suffix_.resize(static_cast<std::size_t>(d_));
    }
    comps_[0].assign(passive.keys.begin(), passive.keys.end());  // C_0 = P
    supps_.assign(static_cast<std::size_t>(d_) + 1, 0);
    supps_[0] = support;
    path_.assign(static_cast<std::size_t>(d_), 0);
    out_.clear();
  }

  // Runs the search restricted to first-slot mask `top`; emitted tuples
  // (d_ masks each, slot-wise non-increasing) are appended to out().
  void search_top(std::uint64_t top) {
    CKP_CHECK(top != 0);
    expand(0, top);
  }

  const std::vector<std::uint64_t>& out() const { return out_; }

 private:
  // One recurrence step: out = { e : e + l ∈ parent for all l ∈ mask },
  // parent elements holding `esize` labels. Candidates are the parent
  // elements containing the mask's lowest label, with it removed; removing
  // a fixed label is order-preserving, so `out` emerges sorted. Returns
  // the union of labels occurring in `out`.
  std::uint64_t comp_step(const std::vector<Key>& parent, int esize,
                          std::uint64_t mask, std::vector<Key>& out) const {
    out.clear();
    const int l0 = std::countr_zero(mask);
    const std::uint64_t rest = mask & (mask - 1);
    std::uint64_t supp = 0;
    for (const Key e : parent) {
      const auto stripped = packedcfg::erase_one(e, esize, l0);
      if (!stripped) continue;
      bool ok = true;
      for (std::uint64_t m = rest; m != 0; m &= m - 1) {
        if (!contains_sorted(parent,
                             packedcfg::insert(*stripped, esize - 1,
                                               std::countr_zero(m)))) {
          ok = false;
          break;
        }
      }
      if (ok) {
        out.push_back(*stripped);
        supp |= packedcfg::label_mask(*stripped, esize - 1);
      }
    }
    return supp;
  }

  // The shared per-slot body: assign `mask` to slot `depth`, prune, recurse.
  void expand(int depth, std::uint64_t mask) {
    const std::vector<Key>& parent = comps_[static_cast<std::size_t>(depth)];
    std::vector<Key>& child = comps_[static_cast<std::size_t>(depth) + 1];
    const std::uint64_t child_supp =
        comp_step(parent, d_ - depth, mask, child);
    if (child.empty()) return;  // no completion exists — infeasible
    // Dominance: a one-label growth of this slot with an identical
    // completion set strictly dominates every tuple below this prefix.
    // Only labels some parent completion contains can pass the test.
    // Inserting a fixed label is order-preserving, so the lookups advance
    // through `parent` monotonically.
    const int csize = d_ - depth - 1;
    for (std::uint64_t rest = supps_[static_cast<std::size_t>(depth)] & ~mask;
         rest != 0; rest &= rest - 1) {
      const int g = std::countr_zero(rest);
      bool dominated = true;
      auto it = parent.begin();
      for (const Key e : child) {
        const Key grown = packedcfg::insert(e, csize, g);
        it = std::lower_bound(it, parent.end(), grown);
        if (it == parent.end() || *it != grown) {
          dominated = false;
          break;
        }
        ++it;
      }
      if (dominated) return;
    }
    path_[static_cast<std::size_t>(depth)] = mask;
    if (depth + 1 == d_) {  // only reachable when d_ == 1
      // child nonempty at a leaf means C_d = {∅}: the tuple is ∀-OK.
      if (is_maximal()) {
        out_.insert(out_.end(), path_.begin(), path_.end());
      }
      return;
    }
    supps_[static_cast<std::size_t>(depth) + 1] = child_supp;
    if (depth + 2 == d_) {
      // Last slot shortcut: its completions are all singletons, so a
      // feasible mask is a subset of child_supp and any proper subset is
      // dominated by one more child_supp label — the only maximal
      // candidate is child_supp itself (when canonically placed, i.e.
      // not above this slot's mask; otherwise the tuple is found along
      // its canonical arrangement instead).
      if (child_supp <= mask) {
        path_[static_cast<std::size_t>(depth) + 1] = child_supp;
        if (is_maximal()) {
          out_.insert(out_.end(), path_.begin(), path_.end());
        }
      }
      return;
    }
    for (std::uint64_t m = largest_submask_at_most(child_supp, mask); m != 0;
         m = (m - 1) & child_supp) {
      expand(depth + 1, m);
    }
  }

  // Authoritative maximality: no slot admits one more label. The tuple
  // being ∀-OK, growing slot j by g stays ∀-OK iff every choice that uses
  // g does — i.e. iff t + g ∈ C_j for every distinct suffix choice t of
  // the slots after j. The suffix choice sets are built backward once per
  // candidate and each (j, g) costs |suffix_[j]| binary searches, instead
  // of refolding the completion sets per growth. Growth labels outside
  // slot j's parent support can never stay ∀-OK, so the restricted loop
  // is exhaustive; the last slot needs no recheck because every emitted
  // tuple already exhausts the singleton support of its last level (the
  // shortcut emits exactly that mask; the d_ == 1 leaf survives dominance
  // only when no singleton member is missing).
  bool is_maximal() {
    suffix_[static_cast<std::size_t>(d_) - 1].assign(1, Key{0});
    for (int j = d_ - 2; j >= 0; --j) {
      const std::vector<Key>& prev = suffix_[static_cast<std::size_t>(j) + 1];
      std::vector<Key>& cur = suffix_[static_cast<std::size_t>(j)];
      cur.clear();
      const int tsize = d_ - 2 - j;  // size of prev's elements
      for (std::uint64_t m = path_[static_cast<std::size_t>(j) + 1]; m != 0;
           m &= m - 1) {
        const int l = std::countr_zero(m);
        for (const Key t : prev) {
          cur.push_back(packedcfg::insert(t, tsize, l));
        }
      }
      std::sort(cur.begin(), cur.end());
      cur.erase(std::unique(cur.begin(), cur.end()), cur.end());
    }
    for (int j = d_ - 2; j >= 0; --j) {
      const std::vector<Key>& cj = comps_[static_cast<std::size_t>(j)];
      const int tsize = d_ - 1 - j;  // size of suffix_[j]'s elements
      for (std::uint64_t rest = supps_[static_cast<std::size_t>(j)] &
                                ~path_[static_cast<std::size_t>(j)];
           rest != 0; rest &= rest - 1) {
        const int g = std::countr_zero(rest);
        bool grown_ok = true;
        for (const Key t : suffix_[static_cast<std::size_t>(j)]) {
          if (!contains_sorted(cj, packedcfg::insert(t, tsize, g))) {
            grown_ok = false;
            break;
          }
        }
        if (grown_ok) return false;  // slot j admits g — not maximal
      }
    }
    return true;
  }

  const int d_;
  std::vector<std::vector<Key>>& comps_;   // completion sets along the path
  std::vector<std::uint64_t>& supps_;      // label union of each comps_ level
  std::vector<std::uint64_t>& path_;       // masks along the path
  std::vector<std::uint64_t>& out_;        // emitted tuples, d_ masks each
  std::vector<std::vector<Key>>& suffix_;  // per-level distinct suffix choices
};

// Work below this many items runs sequentially: the pool dispatch costs
// more than the work itself, and output is thread-count-invariant either
// way, so the threshold is purely a latency knob.
constexpr std::size_t kParallelGrain = 16;

bool want_parallel(std::size_t items, int threads) {
  return threads > 1 && items >= kParallelGrain && !in_parallel_worker();
}

// All maximal ∀-tuples, flattened d masks per tuple, in canonical
// (descending first-mask) order. Fans the per-top-mask subtrees across the
// shared pool; each chunk owns its search (memo and output buffer) and the
// buffers are concatenated in chunk order, so the result is bit-identical
// at every thread count.
void find_maximal_tuples(const PackedSet& passive, int degree,
                         std::uint64_t support, int threads,
                         std::vector<std::uint64_t>& flat) {
  const std::size_t num_tops =
      support == 0 ? 0 : (1ULL << std::popcount(support)) - 1;
  if (!want_parallel(num_tops, threads)) {
    ForallSearch search(passive, degree, support, search_scratch());
    if (support != 0) {
      for (std::uint64_t m = support;; m = (m - 1) & support) {
        search.search_top(m);
        if (((m - 1) & support) == 0) break;
      }
    }
    flat.assign(search.out().begin(), search.out().end());
    return;
  }
  std::vector<std::uint64_t> tops;
  tops.reserve(num_tops);
  for (std::uint64_t m = support;; m = (m - 1) & support) {
    tops.push_back(m);
    if (((m - 1) & support) == 0) break;
  }
  const int chunks =
      std::clamp(threads, 1, static_cast<int>(tops.size()));
  std::vector<std::vector<std::uint64_t>> per_chunk(
      static_cast<std::size_t>(chunks));
  shared_pool(chunks).parallel_for(
      0, static_cast<std::int64_t>(tops.size()), chunks,
      [&](std::int64_t begin, std::int64_t end, int chunk) {
        ForallSearch search(passive, degree, support, search_scratch());
        for (std::int64_t i = begin; i < end; ++i) {
          search.search_top(tops[static_cast<std::size_t>(i)]);
        }
        per_chunk[static_cast<std::size_t>(chunk)] = search.out();
      });
  flat.clear();
  for (const auto& buf : per_chunk) {
    flat.insert(flat.end(), buf.begin(), buf.end());
  }
}

// Direct product walk for small choice spaces: does some choice of one
// label per branching mask, on top of the `psize` labels already in
// `partial`, land in `allowed`? Packed insertion keeps the partial
// multiset sorted; early-exits on the first hit.
bool product_choice_in(const PackedSet& allowed,
                       const std::uint64_t* branch_masks, int num_branch,
                       Key partial, int psize) {
  if (num_branch == 0) return allowed.contains(partial);
  for (std::uint64_t m = branch_masks[0]; m != 0; m &= m - 1) {
    const int label = std::countr_zero(m);
    if (product_choice_in(allowed, branch_masks + 1, num_branch - 1,
                          packedcfg::insert(partial, psize, label),
                          psize + 1)) {
      return true;
    }
  }
  return false;
}

// Does some per-slot choice of labels hit `cfg` exactly? Perfect-matching
// DP between the positions of the sorted config and the slots, over slot
// subsets (degree <= 8 so at most 256 states); equal labels are handled by
// the multiset structure for free.
bool config_matchable(const int* cfg, int degree,
                      const std::uint64_t* slot_masks) {
  std::array<bool, 256> cur{};
  cur[0] = true;
  const int full = (1 << degree) - 1;
  for (int k = 0; k < degree; ++k) {
    std::array<bool, 256> next{};
    bool any = false;
    for (int sm = 0; sm <= full; ++sm) {
      if (!cur[sm]) continue;
      for (int s = 0; s < degree; ++s) {
        if ((sm >> s) & 1) continue;
        if ((slot_masks[s] >> cfg[k]) & 1ULL) {
          next[sm | (1 << s)] = true;
          any = true;
        }
      }
    }
    if (!any) return false;
    cur = next;
  }
  return cur[full];
}

// The ∃-pass: all multisets of size `degree` over the new label ids whose
// slot masks admit a choice inside the (packed, original-label) active set.
// Candidate id-tuples walk in colex order — ascending packed-key order —
// in a flat in-place array (no callback indirection; the sequential path
// materializes nothing), and per-chunk hit buffers concatenate back in
// ascending key order on the parallel path.
void exists_pass(const PackedSet& active, int degree,
                 const std::vector<std::uint64_t>& used_masks, int threads,
                 std::vector<Key>& hits) {
  hits.clear();
  const int universe = static_cast<int>(used_masks.size());
  const auto check = [&](const int* ids) {
    std::array<std::uint64_t, packedcfg::kMaxSlots> slots{};
    std::array<std::uint64_t, packedcfg::kMaxSlots> branch{};
    int num_branch = 0;
    Key forced = 0;
    int num_forced = 0;
    std::uint64_t product = 1;
    std::uint64_t label_union = 0;
    for (int s = 0; s < degree; ++s) {
      const std::uint64_t m = used_masks[static_cast<std::size_t>(ids[s])];
      slots[static_cast<std::size_t>(s)] = m;
      label_union |= m;
      if ((m & (m - 1)) == 0) {  // singleton slot — its label is forced
        forced = packedcfg::insert(forced, num_forced++, std::countr_zero(m));
      } else {
        branch[static_cast<std::size_t>(num_branch++)] = m;
        product *= static_cast<std::uint64_t>(std::popcount(m));
      }
    }
    // Small choice spaces (the common case: mostly singleton slots, often
    // no branching at all) walk the product of the branching slots
    // directly; large ones fall back to one matching DP per config.
    if (product <= 256) {
      return product_choice_in(active, branch.data(), num_branch, forced,
                               num_forced);
    }
    std::array<int, packedcfg::kMaxSlots> cfg{};
    for (const Key key : active.keys) {
      packedcfg::unpack(key, degree, cfg.data());
      bool plausible = true;
      for (int k = 0; k < degree; ++k) {
        if (!((label_union >> cfg[static_cast<std::size_t>(k)]) & 1ULL)) {
          plausible = false;  // config needs a label no slot offers
          break;
        }
      }
      if (plausible && config_matchable(cfg.data(), degree, slots.data())) {
        return true;
      }
    }
    return false;
  };
  // In-place colex enumeration of sorted id-multisets (the packed analogue
  // of enumerate_multisets, minus the std::function and vector traffic).
  const auto enumerate = [&](auto&& emit) {
    if (universe <= 0) return;
    std::array<int, packedcfg::kMaxSlots> ids{};
    while (true) {
      emit(ids.data());
      int i = degree - 1;
      while (i >= 0 && ids[static_cast<std::size_t>(i)] == universe - 1) --i;
      if (i < 0) break;
      const int next = ids[static_cast<std::size_t>(i)] + 1;
      for (int j = i; j < degree; ++j) ids[static_cast<std::size_t>(j)] = next;
    }
  };
  std::size_t num_candidates = 1;  // C(universe + degree - 1, degree)
  for (int i = 1; i <= degree; ++i) {
    num_candidates = num_candidates *
                     static_cast<std::size_t>(universe + i - 1) /
                     static_cast<std::size_t>(i);
  }
  if (!want_parallel(num_candidates, threads)) {
    enumerate([&](const int* ids) {
      if (check(ids)) hits.push_back(packedcfg::pack(ids, degree));
    });
    return;
  }
  std::vector<Key> candidates;
  candidates.reserve(num_candidates);
  enumerate([&](const int* ids) {
    candidates.push_back(packedcfg::pack(ids, degree));
  });
  const int chunks =
      std::clamp(threads, 1, static_cast<int>(candidates.size()));
  std::vector<std::vector<Key>> per_chunk(static_cast<std::size_t>(chunks));
  shared_pool(chunks).parallel_for(
      0, static_cast<std::int64_t>(candidates.size()), chunks,
      [&](std::int64_t begin, std::int64_t end, int chunk) {
        std::vector<Key>& mine = per_chunk[static_cast<std::size_t>(chunk)];
        std::array<int, packedcfg::kMaxSlots> ids{};
        for (std::int64_t i = begin; i < end; ++i) {
          const Key candidate = candidates[static_cast<std::size_t>(i)];
          packedcfg::unpack(candidate, degree, ids.data());
          if (check(ids.data())) mine.push_back(candidate);
        }
      });
  for (const auto& buf : per_chunk) {
    hits.insert(hits.end(), buf.begin(), buf.end());
  }
}

BipartiteProblem round_eliminate_packed(const BipartiteProblem& p,
                                        int max_labels, int threads) {
  // Per-thread working buffers — warm after the first elimination.
  thread_local PackedSet passive;
  thread_local PackedSet active;
  thread_local std::vector<std::uint64_t> flat;
  thread_local std::vector<std::uint64_t> used;
  thread_local std::vector<Key> hits;
  pack_set(p.passive, passive);
  pack_set(p.active, active);
  std::uint64_t support = 0;
  for (const Key key : passive.keys) {
    support |= packedcfg::label_mask(key, p.passive_degree);
  }

  find_maximal_tuples(passive, p.passive_degree, support, threads, flat);
  CKP_CHECK_MSG(!flat.empty(), "round elimination produced the empty problem");

  // Surviving labels: the distinct masks, renamed in ascending mask order
  // (matching the reference's ascending subset enumeration name-for-name).
  used.assign(flat.begin(), flat.end());
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  CKP_CHECK_MSG(static_cast<int>(used.size()) <= max_labels,
                "round elimination exceeded " << max_labels << " labels");

  BipartiteProblem out;
  out.active_degree = p.passive_degree;  // roles swap
  out.passive_degree = p.active_degree;
  out.label_names.reserve(used.size());
  for (const std::uint64_t mask : used) {
    out.label_names.push_back(subset_name(p, mask));
  }
  // The new id of a mask is its rank in the sorted `used` vector — no map.
  const auto rank = [](std::uint64_t mask) {
    return static_cast<int>(
        std::lower_bound(used.begin(), used.end(), mask) - used.begin());
  };

  const std::size_t d = static_cast<std::size_t>(p.passive_degree);
  for (std::size_t i = 0; i < flat.size(); i += d) {
    std::vector<int> renamed;
    renamed.reserve(d);
    for (std::size_t j = 0; j < d; ++j) {
      renamed.push_back(rank(flat[i + j]));
    }
    std::sort(renamed.begin(), renamed.end());
    out.active.insert(std::move(renamed));
  }

  // exists_pass hits come back in ascending key = lexicographic config
  // order, so end-hinted insertion builds the set in linear time.
  exists_pass(active, p.active_degree, used, threads, hits);
  std::array<int, packedcfg::kMaxSlots> cfg_buf{};
  for (const Key key : hits) {
    packedcfg::unpack(key, p.active_degree, cfg_buf.data());
    out.passive.insert(
        out.passive.end(),
        std::vector<int>(cfg_buf.begin(),
                         cfg_buf.begin() + p.active_degree));
  }

  // No out.validate() here: every public entry point validates its input,
  // and the differential tests pin this construction to the reference
  // output configuration-for-configuration.
  return out;
}

// Packs p's passive side and OR's up the label support — the shared setup
// of both test seams below.
std::uint64_t pack_passive_support(const BipartiteProblem& p,
                                   PackedSet& passive) {
  CKP_CHECK_MSG(p.num_labels() <= packedcfg::kMaxLabels &&
                    p.active_degree <= packedcfg::kMaxSlots &&
                    p.passive_degree <= packedcfg::kMaxSlots,
                "roundelim_detail seams need the packed envelope");
  pack_set(p.passive, passive);
  std::uint64_t support = 0;
  for (const Key key : passive.keys) {
    support |= packedcfg::label_mask(key, p.passive_degree);
  }
  return support;
}

}  // namespace

namespace roundelim_detail {

std::size_t forall_pass_tuple_count(const BipartiteProblem& p) {
  thread_local PackedSet passive;
  thread_local std::vector<std::uint64_t> flat;
  const std::uint64_t support = pack_passive_support(p, passive);
  find_maximal_tuples(passive, p.passive_degree, support, /*threads=*/1,
                      flat);
  return flat.size() / static_cast<std::size_t>(p.passive_degree);
}

std::size_t exists_pass_hit_count(const BipartiteProblem& p) {
  thread_local PackedSet passive;
  thread_local PackedSet active;
  thread_local std::vector<std::uint64_t> flat;
  thread_local std::vector<std::uint64_t> used;
  thread_local std::vector<Key> hits;
  const std::uint64_t support = pack_passive_support(p, passive);
  pack_set(p.active, active);
  find_maximal_tuples(passive, p.passive_degree, support, /*threads=*/1,
                      flat);
  used.assign(flat.begin(), flat.end());
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  exists_pass(active, p.active_degree, used, /*threads=*/1, hits);
  return hits.size();
}

}  // namespace roundelim_detail

BipartiteProblem round_eliminate(const BipartiteProblem& p, int max_labels,
                                 int threads) {
  p.validate();
  if (p.num_labels() > packedcfg::kMaxLabels ||
      p.active_degree > packedcfg::kMaxSlots ||
      p.passive_degree > packedcfg::kMaxSlots) {
    // Outside the packed envelope (64 labels × 8 slots) — take the
    // reference path and its tighter label bound.
    return round_eliminate_reference(p, max_labels);
  }
  if (threads <= 0) threads = default_engine_threads();
  return round_eliminate_packed(p, max_labels, threads);
}

bool problems_identical(const BipartiteProblem& a, const BipartiteProblem& b) {
  return a.active_degree == b.active_degree &&
         a.passive_degree == b.passive_degree &&
         a.label_names == b.label_names && a.active == b.active &&
         a.passive == b.passive;
}

namespace {

// Per-label invariant: for each side, how many configurations contain the
// label with each multiplicity. Any isomorphism maps a label to one with an
// identical signature, so the backtracking search only crosses within
// equal-signature classes.
std::vector<std::vector<int>> label_signatures(const BipartiteProblem& p) {
  const int k = p.num_labels();
  std::vector<std::vector<int>> sig(
      static_cast<std::size_t>(k),
      std::vector<int>(
          static_cast<std::size_t>(p.active_degree + p.passive_degree), 0));
  const auto tally = [&](const std::set<std::vector<int>>& cfgs, int offset) {
    for (const auto& cfg : cfgs) {
      std::size_t i = 0;
      while (i < cfg.size()) {
        std::size_t j = i;
        while (j < cfg.size() && cfg[j] == cfg[i]) ++j;
        const int mult = static_cast<int>(j - i);
        ++sig[static_cast<std::size_t>(cfg[i])]
             [static_cast<std::size_t>(offset + mult - 1)];
        i = j;
      }
    }
  };
  tally(p.active, 0);
  tally(p.passive, p.active_degree);
  return sig;
}

// cooc[l1 * k + l2]: configurations containing both l1 and l2 (l1 != l2).
std::vector<int> cooccurrence(const std::set<std::vector<int>>& cfgs, int k) {
  std::vector<int> cooc(static_cast<std::size_t>(k) * static_cast<std::size_t>(k),
                        0);
  std::vector<int> distinct;
  for (const auto& cfg : cfgs) {
    distinct.assign(cfg.begin(), cfg.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      for (std::size_t j = i + 1; j < distinct.size(); ++j) {
        ++cooc[static_cast<std::size_t>(distinct[i]) *
                   static_cast<std::size_t>(k) +
               static_cast<std::size_t>(distinct[j])];
        ++cooc[static_cast<std::size_t>(distinct[j]) *
                   static_cast<std::size_t>(k) +
               static_cast<std::size_t>(distinct[i])];
      }
    }
  }
  return cooc;
}

}  // namespace

bool problems_isomorphic(const BipartiteProblem& a, const BipartiteProblem& b) {
  if (a.active_degree != b.active_degree ||
      a.passive_degree != b.passive_degree ||
      a.num_labels() != b.num_labels() || a.active.size() != b.active.size() ||
      a.passive.size() != b.passive.size()) {
    return false;
  }
  const int k = a.num_labels();
  const auto sig_a = label_signatures(a);
  const auto sig_b = label_signatures(b);
  {
    auto sorted_a = sig_a;
    auto sorted_b = sig_b;
    std::sort(sorted_a.begin(), sorted_a.end());
    std::sort(sorted_b.begin(), sorted_b.end());
    if (sorted_a != sorted_b) return false;  // class sizes differ — no map
  }
  const auto cooc_act_a = cooccurrence(a.active, k);
  const auto cooc_act_b = cooccurrence(b.active, k);
  const auto cooc_pas_a = cooccurrence(a.passive, k);
  const auto cooc_pas_b = cooccurrence(b.passive, k);

  // Assign a's labels in order, trying only unused b-labels of the same
  // signature, and insisting partial images preserve pairwise co-occurrence
  // counts on both sides. The full configuration-set comparison at the leaf
  // is the authoritative test (pairwise counts alone do not pin down
  // hyperedge structure for degree >= 3).
  std::vector<int> perm(static_cast<std::size_t>(k), -1);
  std::vector<bool> used(static_cast<std::size_t>(k), false);
  const auto apply = [&](const std::set<std::vector<int>>& cfgs) {
    std::set<std::vector<int>> out;
    for (const auto& cfg : cfgs) {
      std::vector<int> mapped;
      mapped.reserve(cfg.size());
      for (const int l : cfg) mapped.push_back(perm[static_cast<std::size_t>(l)]);
      std::sort(mapped.begin(), mapped.end());
      out.insert(std::move(mapped));
    }
    return out;
  };
  const std::function<bool(int)> assign = [&](int l) -> bool {
    if (l == k) {
      return apply(a.active) == b.active && apply(a.passive) == b.passive;
    }
    for (int m = 0; m < k; ++m) {
      if (used[static_cast<std::size_t>(m)]) continue;
      if (sig_a[static_cast<std::size_t>(l)] !=
          sig_b[static_cast<std::size_t>(m)]) {
        continue;
      }
      bool consistent = true;
      for (int l2 = 0; l2 < l; ++l2) {
        const int m2 = perm[static_cast<std::size_t>(l2)];
        const std::size_t ab = static_cast<std::size_t>(l) *
                                   static_cast<std::size_t>(k) +
                               static_cast<std::size_t>(l2);
        const std::size_t bb = static_cast<std::size_t>(m) *
                                   static_cast<std::size_t>(k) +
                               static_cast<std::size_t>(m2);
        if (cooc_act_a[ab] != cooc_act_b[bb] ||
            cooc_pas_a[ab] != cooc_pas_b[bb]) {
          consistent = false;
          break;
        }
      }
      if (!consistent) continue;
      perm[static_cast<std::size_t>(l)] = m;
      used[static_cast<std::size_t>(m)] = true;
      if (assign(l + 1)) return true;
      used[static_cast<std::size_t>(m)] = false;
      perm[static_cast<std::size_t>(l)] = -1;
    }
    return false;
  };
  return assign(0);
}

bool zero_round_solvable(const BipartiteProblem& p) {
  for (const auto& cfg : p.active) {
    std::set<int> support(cfg.begin(), cfg.end());
    const std::vector<int> labels(support.begin(), support.end());
    bool all_passive_ok = true;
    enumerate_multisets(
        static_cast<int>(labels.size()), p.passive_degree,
        [&](const std::vector<int>& idx_cfg) {
          std::vector<int> real;
          real.reserve(idx_cfg.size());
          for (int i : idx_cfg) real.push_back(labels[static_cast<std::size_t>(i)]);
          std::sort(real.begin(), real.end());
          if (!p.passive.contains(real)) all_passive_ok = false;
        });
    if (all_passive_ok) return true;
  }
  return false;
}

BipartiteProblem sinkless_orientation_problem(int delta) {
  CKP_CHECK(delta >= 2);
  BipartiteProblem p;
  p.active_degree = delta;  // vertices
  p.passive_degree = 2;     // edges
  p.label_names = {"O", "I"};
  // Vertex: at least one outgoing half-edge — multisets with >= 1 "O" (0).
  for (int outs = 1; outs <= delta; ++outs) {
    std::vector<int> cfg;
    for (int i = 0; i < outs; ++i) cfg.push_back(0);
    for (int i = outs; i < delta; ++i) cfg.push_back(1);
    std::sort(cfg.begin(), cfg.end());
    p.active.insert(cfg);
  }
  // Edge: exactly one outgoing and one incoming end.
  p.passive.insert({0, 1});
  p.validate();
  return p;
}

BipartiteProblem sinkless_orientation_canonical(int delta) {
  CKP_CHECK(delta >= 2);
  BipartiteProblem p;
  p.active_degree = delta;
  p.passive_degree = 2;
  p.label_names = {"M", "U"};
  // Vertex: exactly one designated outgoing half-edge.
  std::vector<int> cfg(static_cast<std::size_t>(delta), 1);
  cfg[0] = 0;
  std::sort(cfg.begin(), cfg.end());
  p.active.insert(cfg);
  // Edge: at most one designated end.
  p.passive.insert({0, 1});
  p.passive.insert({1, 1});
  p.validate();
  return p;
}

BipartiteProblem free_problem(int active_degree, int passive_degree,
                              int labels) {
  CKP_CHECK(labels >= 1 && labels <= 6);
  BipartiteProblem p;
  p.active_degree = active_degree;
  p.passive_degree = passive_degree;
  for (int l = 0; l < labels; ++l) {
    p.label_names.push_back(std::string(1, static_cast<char>('a' + l)));
  }
  enumerate_multisets(labels, active_degree, [&](const std::vector<int>& cfg) {
    p.active.insert(cfg);
  });
  enumerate_multisets(labels, passive_degree, [&](const std::vector<int>& cfg) {
    p.passive.insert(cfg);
  });
  p.validate();
  return p;
}

}  // namespace ckp
