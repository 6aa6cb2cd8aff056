// Cross-build artifact fingerprint: fits every board's models from the
// deterministic characterization dataset — the default power and perf
// pair, every prefix of the cap-20 power and perf families, and the
// extended power form — and prints their core::model_fingerprint values,
// plus raw kernel probes (SIMD dot / sum over a pinned pseudorandom
// vector, CRC-32 of a pinned buffer).
//
// The output is a pure function of the numeric pipeline, so a default
// (SIMD) build and a -DGPPM_SIMD=off build must print IDENTICAL text —
// run_tier1.sh diffs the two to enforce the bit-identical-fallback
// contract end to end, through selection, Cholesky, QR and serialization,
// not just through the kernel parity unit tests.
//
// The active backend is reported on a comment line ("# backend: ...") so
// a human can tell the two logs apart; the diff skips it.
#include <bit>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/dataset.hpp"
#include "core/serialization.hpp"
#include "core/unified_model.hpp"
#include "net/wire.hpp"

using namespace gppm;

int main() {
  std::printf("# backend: %s (lanes=%zu)\n", simd::kBackend,
              simd::kLaneWidth);

  // Raw kernel probes over a pinned pseudorandom vector.
  Rng rng(0xf00d);
  std::vector<double> a(1021), b(1021);
  for (double& x : a) x = rng.normal(0.0, 2.0);
  for (double& x : b) x = rng.normal(0.0, 2.0);
  std::printf("kernel dot=%016llx sum=%016llx\n",
              static_cast<unsigned long long>(
                  std::bit_cast<std::uint64_t>(
                      simd::dot(a.data(), b.data(), a.size()))),
              static_cast<unsigned long long>(
                  std::bit_cast<std::uint64_t>(simd::sum(a.data(), a.size()))));

  std::vector<std::uint8_t> buf(65539);
  for (std::uint8_t& byte : buf) {
    byte = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
  }
  std::printf("kernel crc32=%08x\n", net::crc32(buf.data(), buf.size()));

  // Full-pipeline fingerprints: dataset -> forward selection -> QR refit
  // -> serialized-model hash, per board and target: the default cap-10
  // pair, every prefix of the cap-20 power and exec-time families (the
  // Fig. 7/8 sweeps and the fit benchmark), and the extended V^2 f +
  // baseline power model the governors fit.
  constexpr std::size_t kFamilyCap = 20;
  core::ModelOptions family_options;
  family_options.max_variables = kFamilyCap;
  for (sim::GpuModel m : sim::kAllGpus) {
    const core::Dataset ds = core::build_dataset(m);
    const std::string board = sim::to_string(m);
    const core::UnifiedModel power =
        core::UnifiedModel::fit(ds, core::TargetKind::Power);
    const core::UnifiedModel perf =
        core::UnifiedModel::fit(ds, core::TargetKind::ExecTime);
    std::printf("%s power=%016llx perf=%016llx\n", board.c_str(),
                static_cast<unsigned long long>(core::model_fingerprint(power)),
                static_cast<unsigned long long>(core::model_fingerprint(perf)));
    for (const auto& [name, target] :
         {std::pair{"power", core::TargetKind::Power},
          std::pair{"perf", core::TargetKind::ExecTime}}) {
      const core::ModelFamily family =
          core::ModelFamily::fit(ds, target, family_options);
      for (std::size_t k = 1; k <= family.size(); ++k) {
        std::printf("%s %s cap%zu k=%02zu %016llx\n", board.c_str(), name,
                    kFamilyCap, k,
                    static_cast<unsigned long long>(
                        core::model_fingerprint(family.at(k))));
      }
    }
    const core::UnifiedModel extended = core::UnifiedModel::fit(
        ds, core::TargetKind::Power, core::extended_power_options());
    std::printf("%s power extended=%016llx\n", board.c_str(),
                static_cast<unsigned long long>(
                    core::model_fingerprint(extended)));
  }
  return 0;
}
