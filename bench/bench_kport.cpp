// Section 3.4 — the k-port generalization of the index algorithm:
// C1 ≈ ceil((r-1)/k)·ceil(log_r n) rounds, so ports divide the round count
// within each subphase; and Section 4's concatenation scales its volume as
// b(n-1)/k.  Sweeps k at n = 64 (n = 16 under --smoke) and shows the
// paper's advice that radices with (r-1) mod k == 0 waste no port slots.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "bench_common.hpp"
#include "model/lower_bounds.hpp"
#include "util/csv.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const bruck::bench::BenchArgs args = bruck::bench::parse_bench_args(argc, argv);
  std::ofstream csv_file = bruck::bench::open_csv(args);
  const std::int64_t n = args.smoke ? 16 : 64;
  const std::int64_t b = 8;
  const std::vector<int> index_ks =
      args.smoke ? std::vector<int>{1, 2, 3} : std::vector<int>{1, 2, 3, 4, 7};
  const std::vector<std::int64_t> concat_ns =
      args.smoke ? std::vector<std::int64_t>{16}
                 : std::vector<std::int64_t>{16, 27, 64};

  std::unique_ptr<bruck::CsvWriter> csv;
  if (csv_file.is_open()) {
    csv = std::make_unique<bruck::CsvWriter>(
        csv_file,
        std::vector<std::string>{"op", "n", "k", "r", "b", "c1", "c2"});
  }

  std::cout << "index operation, n = " << n << ", b = 8: C1/C2 vs ports k\n\n";
  bruck::TextTable t({"k", "r", "(r-1)%k", "C1", "C2", "C1 lower bound"});
  for (const int k : index_ks) {
    for (const std::int64_t r : {2, 4, 8, 5, 64}) {
      if (r > n) continue;
      const bruck::model::CostMetrics m =
          bruck::bench::measure_index_bruck(n, k, b, r);
      t.add(k, r, (r - 1) % k, m.c1, m.c2,
            bruck::model::index_c1_lower_bound(n, k));
      if (csv) {
        csv->row({"index_bruck", std::to_string(n), std::to_string(k),
                  std::to_string(r), std::to_string(b), std::to_string(m.c1),
                  std::to_string(m.c2)});
      }
    }
  }
  t.print(std::cout);
  std::cout << "\nport-aligned radices ((r-1) mod k == 0) use every port in "
               "every round; misaligned ones leave slots idle in the final "
               "round of each subphase.\n\n";

  std::cout << "round-minimal choice r = k+1 vs ports (C1 = ceil(log_{k+1} "
            << n << ")):\n\n";
  bruck::TextTable tmin({"k", "r=k+1", "C1", "C1 bound", "C2",
                         "Thm 2.5 bound (n=(k+1)^d only)"});
  for (const int k : {1, 3, 7}) {
    const bruck::model::CostMetrics m =
        bruck::bench::measure_index_bruck(n, k, b, k + 1);
    std::string thm25 = "-";
    if (bruck::ipow(k + 1, bruck::ceil_log(n, k + 1)) == n) {
      thm25 = std::to_string(
          bruck::model::index_c2_bound_at_min_rounds(n, k, b));
    }
    tmin.add(k, k + 1, m.c1, bruck::model::index_c1_lower_bound(n, k), m.c2,
             thm25);
    if (csv) {
      csv->row({"index_bruck_rmin", std::to_string(n), std::to_string(k),
                std::to_string(k + 1), std::to_string(b),
                std::to_string(m.c1), std::to_string(m.c2)});
    }
  }
  tmin.print(std::cout);

  std::cout << "\nconcatenation, b = 8: measured C1/C2 vs ports\n\n";
  bruck::TextTable tc({"n", "k", "C1", "C1 bound", "C2", "C2 bound"});
  for (const std::int64_t cn : concat_ns) {
    for (const int k : {1, 2, 3, 4}) {
      const bruck::model::CostMetrics m = bruck::bench::measure_concat(
          cn, k, b, bruck::coll::ConcatAlgorithm::kBruck);
      tc.add(cn, k, m.c1, bruck::model::concat_c1_lower_bound(cn, k), m.c2,
             bruck::model::concat_c2_lower_bound(cn, k, b));
      if (csv) {
        csv->row({"concat_bruck", std::to_string(cn), std::to_string(k), "-",
                  std::to_string(b), std::to_string(m.c1),
                  std::to_string(m.c2)});
      }
    }
  }
  tc.print(std::cout);
  std::cout << "\nvolume scales as b(n-1)/k and rounds as log_{k+1} n — "
               "both at their lower bounds.\n";
  return 0;
}
