// Tests for the synthesis driver (the CLI's engine).

#include <gtest/gtest.h>

#include <sstream>

#include "circuits/registry.hpp"
#include "logic/pla.hpp"
#include "logic/simulate.hpp"
#include "map/driver.hpp"

namespace imodec {
namespace {

TEST(Driver, CollapsedPathOnSmallCircuit) {
  const auto net = circuits::make_benchmark("rd73");
  ASSERT_TRUE(net.has_value());
  Network mapped;
  const DriverReport rep = run_synthesis(*net, {}, mapped);
  EXPECT_TRUE(rep.collapsed);
  EXPECT_TRUE(rep.verified);
  EXPECT_TRUE(rep.verified_exhaustive);
  EXPECT_GT(rep.flow.luts, 0u);
  EXPECT_GT(rep.clbs.clbs, 0u);
  EXPECT_LE(rep.clbs.clbs, rep.flow.luts);
  EXPECT_GT(rep.depth, 0u);
  EXPECT_TRUE(check_equivalence(*net, mapped).equivalent);
}

TEST(Driver, WideCircuitFallsBackToRestructuring) {
  const auto net = circuits::make_benchmark("C499");
  ASSERT_TRUE(net.has_value());
  Network mapped;
  const DriverReport rep = run_synthesis(*net, {}, mapped);
  EXPECT_FALSE(rep.collapsed);  // cones exceed the truth-table limit
  EXPECT_TRUE(rep.verified);
  EXPECT_TRUE(check_equivalence(*net, mapped).equivalent);
}

TEST(Driver, NoCollapseOptionForcesRestructure) {
  const auto net = circuits::make_benchmark("rd73");
  SynthesisConfig opts;
  opts.collapse = false;
  Network mapped;
  const DriverReport rep = run_synthesis(*net, opts, mapped);
  EXPECT_FALSE(rep.collapsed);
  EXPECT_TRUE(rep.verified);
}

TEST(Driver, NoVerifySkipsCheckButStillMaps) {
  const auto net = circuits::make_benchmark("rd53");
  SynthesisConfig opts;
  opts.verify = VerifyMode::off;
  Network mapped;
  const DriverReport rep = run_synthesis(*net, opts, mapped);
  EXPECT_TRUE(rep.verified);  // default value, no check ran
  EXPECT_FALSE(rep.verified_exhaustive);
  EXPECT_TRUE(check_equivalence(*net, mapped).equivalent);  // still correct
}

TEST(Driver, SingleModeUsesMoreClbs) {
  const auto net = circuits::make_benchmark("rd84");
  SynthesisConfig multi;
  SynthesisConfig single;
  single.multi_output = false;
  Network m, s;
  const DriverReport rm = run_synthesis(*net, multi, m);
  const DriverReport rs = run_synthesis(*net, single, s);
  EXPECT_TRUE(rm.verified);
  EXPECT_TRUE(rs.verified);
  EXPECT_LT(rm.clbs.clbs, rs.clbs.clbs);
}

TEST(Driver, CustomLutSize) {
  const auto net = circuits::make_benchmark("rd53");
  SynthesisConfig opts;
  opts.k = 4;
  Network mapped;
  const DriverReport rep = run_synthesis(*net, opts, mapped);
  EXPECT_TRUE(rep.verified);
  for (SigId s = 0; s < mapped.node_count(); ++s) {
    if (mapped.node(s).kind == Network::Kind::Logic) {
      EXPECT_LE(mapped.node(s).fanins.size(), 4u);
    }
  }
}

TEST(Driver, FormatReportMentionsKeyFields) {
  const auto net = circuits::make_benchmark("z4ml");
  Network mapped;
  const DriverReport rep = run_synthesis(*net, {}, mapped);
  const std::string report = format_report("z4ml", rep);
  EXPECT_NE(report.find("z4ml"), std::string::npos);
  EXPECT_NE(report.find("CLB"), std::string::npos);
  EXPECT_NE(report.find("PASS"), std::string::npos);
  EXPECT_NE(report.find("collapsed"), std::string::npos);
}

TEST(Driver, GlobalPartitionKeepsEveryClassTuple) {
  // A global partition numbered by a hash of the per-output class tuples
  // merged two of its 23 classes on this 8-input, 4-output PLA (p = 22), and
  // the resulting decomposition recomposed outputs 1-3 wrongly.
  std::istringstream pla(
      ".i 8\n.o 4\n"
      "01-11100 1000\n01-01010 1000\n111000-1 1000\n11100-00 1000\n"
      "-11-1-1- 0100\n1--00-0- 0100\n01-0--00 0100\n10-10001 0100\n"
      "-011-100 0100\n011--100 0010\n-011-101 0010\n01--1-10 0010\n"
      "100001-0 0010\n-11011-1 0010\n1--01010 0010\n1010-00- 0001\n"
      "-10--111 0001\n111-101- 0001\n10100101 0001\n0-1010-1 0001\n"
      "00001101 0001\n-1110--- 0001\n.e\n");
  const Network net = read_pla(pla);
  Network mapped;
  const DriverReport rep = run_synthesis(net, {}, mapped);
  EXPECT_TRUE(rep.verified);
  EXPECT_TRUE(rep.verify_proven);
}

}  // namespace
}  // namespace imodec
