// Reproduces Table I: MTTF increase (x) of the aging-aware floorplan over
// the aging-unaware baseline for the 27-benchmark suite, with the Freeze
// and Rotate variants and the per-usage-band averages, then Fig. 5: the same
// Rotate gains grouped by configuration "C<contexts>F<fabric-dim>".
//
// Usage: table1_mttf [--paper-scale] [--band low|medium|high] [--max-dim N]
//   --paper-scale  use the paper's fabrics {4x4, 8x8, 16x16} (slow; see
//                  DESIGN.md §5) instead of the default {4x4, 6x6, 8x8}.
//   --max-dim N    skip benchmarks with fabric dimension > N.
//
// Exits 1, after printing both tables, when a remap returns a floorplan
// that is not certified (RemapResult::certified).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/report.h"

int main(int argc, char** argv) {
  bool paper_scale = false;
  int max_dim = 1 << 30;
  std::string band_filter;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paper-scale") == 0) paper_scale = true;
    else if (std::strcmp(argv[i], "--band") == 0 && i + 1 < argc)
      band_filter = argv[++i];
    else if (std::strcmp(argv[i], "--max-dim") == 0 && i + 1 < argc) {
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v <= 0 || v > (1L << 30)) {
        std::fprintf(stderr, "bad --max-dim '%s'\n", argv[i]);
        return 2;
      }
      max_dim = static_cast<int>(v);
    }
  }

  std::printf("== Table I: MTTF increase for the B1-B27 suite ==\n");
  std::printf("(fabrics %s; MTTF metric: first-PE-failure under the NBTI "
              "model, Section III)\n\n",
              paper_scale ? "4x4/8x8/16x16 (paper scale)"
                          : "4x4/6x6/8x8 (default scale, DESIGN.md §5)");

  std::vector<cgraf::core::BenchmarkRun> runs;
  bool all_certified = true;
  for (const auto& spec : cgraf::workloads::table1_specs(paper_scale)) {
    if (spec.fabric_dim > max_dim) continue;
    if (!band_filter.empty() &&
        band_filter != cgraf::workloads::to_string(spec.band))
      continue;
    const auto bench = cgraf::workloads::generate_benchmark(spec);
    cgraf::core::RemapOptions opts;
    const auto run = cgraf::core::run_benchmark(bench, opts);
    std::printf("  %s: ops=%d freeze=%.2fx rotate=%.2fx (%.1fs + %.1fs)\n",
                spec.name.c_str(), run.total_ops, run.freeze.mttf_gain,
                run.rotate.mttf_gain, run.freeze.seconds,
                run.rotate.seconds);
    std::fflush(stdout);
    for (const auto* r : {&run.freeze, &run.rotate}) {
      if (r->certified) continue;
      std::fprintf(stderr, "%s: %s remap is not certified (%s)\n",
                   spec.name.c_str(), r == &run.freeze ? "freeze" : "rotate",
                   r->note.c_str());
      all_certified = false;
    }
    runs.push_back(run);
  }

  std::printf("\n%s\n", cgraf::core::format_table1(runs).c_str());

  // The shape notes are the paper's narrative, reported, not asserted.
  std::printf("== Fig. 5: MTTF increase (x) by configuration ==\n\n%s\n"
              "shape notes: gains should fall from the 'low' to the 'high'"
              " column,\nand rise from C4 rows to C16 rows within a fabric"
              " size.\n",
              cgraf::core::format_fig5(runs).c_str());
  return all_certified ? 0 : 1;
}
