#include "map/session.hpp"

#include <cassert>
#include <cstdio>
#include <thread>

#include "map/report.hpp"
#include "obs/metrics.hpp"
#include "util/resource.hpp"

namespace imodec {

SynthesisSession::SynthesisSession(const SynthesisConfig& cfg) : cfg_(cfg) {
  assert(cfg.validate().empty() && "SynthesisSession requires a valid config");
  // A report wants counters, histograms and kernel health populated, so
  // asking for one opts the session into observability.
  if (!cfg_.report_path.empty()) obs::set_enabled(true);
  const unsigned resolved =
      cfg_.threads ? cfg_.threads : std::thread::hardware_concurrency();
  if (resolved > 1) pool_.emplace(resolved);
  if (cfg_.result_cache) cache_.emplace(cfg_.result_cache_entries);
}

DriverReport SynthesisSession::run(const Network& input, Network& mapped) {
  return run(input, cfg_, mapped);
}

DriverReport SynthesisSession::run(const Network& input,
                                   const SynthesisConfig& cfg,
                                   Network& mapped) {
  assert(cfg.validate().empty() && "SynthesisSession::run requires a valid "
                                   "config");
  RunResources res;
  res.pool = pool();
  res.npn_cache = result_cache();  // run_synthesis gates on cfg.result_cache
  res.managers = &managers_;
  DriverReport rep = run_synthesis(input, cfg, mapped, res);
  if (!cfg.report_path.empty() &&
      !write_run_report(cfg.report_path, input.name(), cfg, rep))
    std::fprintf(stderr, "imodec: failed to write run report to %s\n",
                 cfg.report_path.c_str());
  return rep;
}

SynthesisSession::Outcome SynthesisSession::run_checked(
    const Network& input, const SynthesisConfig& cfg, Network& mapped) {
  Outcome out;
  const std::vector<std::string> diags = cfg.validate();
  if (!diags.empty()) {
    out.code = ErrorCode::usage;
    for (std::size_t i = 0; i < diags.size(); ++i) {
      if (i) out.message += "; ";
      out.message += diags[i];
    }
    return out;
  }
  try {
    DriverReport rep = run(input, cfg, mapped);
    const bool verified = rep.verified;
    out.report = std::move(rep);
    if (!verified) {
      out.code = ErrorCode::verify_failed;
      out.message = "mapped network is not equivalent to its input";
    }
  } catch (const util::Timeout& e) {
    out.code = ErrorCode::timeout;
    out.message = e.what();
  } catch (const util::ResourceExhausted& e) {
    out.code = ErrorCode::resource;
    out.message = e.what();
  } catch (const std::exception& e) {
    out.code = ErrorCode::decompose;
    out.message = e.what();
  }
  return out;
}

}  // namespace imodec
