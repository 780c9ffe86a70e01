// Section 4 / Theorem 4.3: the concatenation algorithm's measured C1 and C2
// against the Section 2 lower bounds and against the folklore and ring
// baselines, across n and k — including the non-optimal range, where the
// two fallback strategies realize the two options of the paper's Remark.
// Also prints the Figures 7–8 circulant spanning trees.
#include <cstdint>
#include <iostream>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "model/lower_bounds.hpp"
#include "topo/circulant.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

namespace {

void print_tree(const std::string& title,
                const std::vector<bruck::topo::TreeEdge>& edges) {
  std::cout << title << '\n';
  std::map<int, std::vector<std::string>> per_round;
  for (const bruck::topo::TreeEdge& e : edges) {
    per_round[e.round].push_back(std::to_string(e.parent) + "->" +
                                 std::to_string(e.child));
  }
  for (const auto& [round, list] : per_round) {
    std::cout << "  round " << round << ":";
    for (const std::string& s : list) std::cout << ' ' << s;
    std::cout << '\n';
  }
  std::cout << '\n';
}

}  // namespace

int main() {
  std::cout << "Figures 7-8 — circulant spanning trees, n = 9, k = 2\n\n";
  print_tree("T_0 (Figure 7):",
             bruck::topo::concat_full_spanning_tree(9, 2, 0));
  print_tree("T_1 (Figure 8, translation of T_0 by +1):",
             bruck::topo::concat_full_spanning_tree(9, 2, 1));

  std::cout << "Theorem 4.3 — measured C1/C2 of the concatenation vs lower "
               "bounds (b = 4 bytes)\n\n";
  const std::int64_t b = 4;
  bruck::TextTable table({"n", "k", "C1", "C1 bound", "C2", "C2 bound",
                          "optimal?", "in paper's range?"});
  for (const std::int64_t n : {2, 5, 8, 9, 16, 17, 26, 27, 28, 40, 64}) {
    for (const int k : {1, 2, 3, 4}) {
      const bruck::model::CostMetrics m = bruck::bench::measure_concat(
          n, k, b, bruck::coll::ConcatAlgorithm::kBruck);
      const std::int64_t c1_lb = bruck::model::concat_c1_lower_bound(n, k);
      const std::int64_t c2_lb = bruck::model::concat_c2_lower_bound(n, k, b);
      const bool optimal = m.c1 == c1_lb && m.c2 == c2_lb;
      table.add(n, k, m.c1, c1_lb, m.c2, c2_lb,
                optimal ? std::string("yes") : std::string("no"),
                bruck::model::concat_paper_nonoptimal_range(n, k, b)
                    ? std::string("yes")
                    : std::string("no"));
    }
  }
  table.print(std::cout);
  std::cout << "\n(\"no\" in the optimal column may appear only where the "
               "range column says \"yes\")\n\n";

  // n = 15, k = 3, b = 3 sits in the paper's range AND is genuinely
  // infeasible for the byte-split construction (the middle area would span
  // 5 columns against n1 = 4); bounds are C1 = 2, C2 = 14.
  std::cout << "the Remark's two fallbacks on an infeasible instance "
               "(n = 15, k = 3, b = 3; bounds C1 = 2, C2 = 14):\n\n";
  bruck::TextTable remark({"strategy", "C1", "C2", "note"});
  {
    const bool feasible = bruck::model::concat_byte_split_feasible(15, 3, 3);
    std::cout << "  byte-split feasible here? " << (feasible ? "yes" : "no")
              << "\n\n";
    const auto cg = bruck::bench::measure_concat(
        15, 3, 3, bruck::coll::ConcatAlgorithm::kBruck,
        bruck::model::ConcatLastRound::kColumnGranular);
    remark.add("column-granular", cg.c1, cg.c2,
               "optimal C1, C2 <= bound + b-1");
    const auto tr = bruck::bench::measure_concat(
        15, 3, 3, bruck::coll::ConcatAlgorithm::kBruck,
        bruck::model::ConcatLastRound::kTwoRound);
    remark.add("two-round", tr.c1, tr.c2, "optimal C2, C1 = bound + 1");
  }
  remark.print(std::cout);

  std::cout << "\nbaseline comparison at k = 1 (b = 4 bytes):\n\n";
  bruck::TextTable base({"n", "bruck C1", "bruck C2", "folklore C1",
                         "folklore C2", "ring C1", "ring C2"});
  for (const std::int64_t n : {8, 16, 27, 32, 64}) {
    const auto bm = bruck::bench::measure_concat(
        n, 1, b, bruck::coll::ConcatAlgorithm::kBruck);
    const auto fm = bruck::bench::measure_concat(
        n, 1, b, bruck::coll::ConcatAlgorithm::kFolklore);
    const auto rm = bruck::bench::measure_concat(
        n, 1, b, bruck::coll::ConcatAlgorithm::kRing);
    base.add(n, bm.c1, bm.c2, fm.c1, fm.c2, rm.c1, rm.c2);
  }
  base.print(std::cout);
  std::cout << "\nBruck dominates: folklore's rounds and volume are both "
               "larger; the ring matches the volume but needs n-1 rounds.\n";
  return 0;
}
