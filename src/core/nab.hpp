#pragma once

/// Umbrella header for the nabcast library — Network-Aware Byzantine
/// Broadcast (Liang & Vaidya, PODC 2012) and every substrate it stands on.
///
/// Quick start:
///   #include "core/nab.hpp"
///   auto g = nab::graph::paper_fig1a();
///   nab::core::session_config cfg{.g = g, .f = 1, .source = 0};
///   nab::sim::fault_set faults(g.universe(), {2});
///   nab::core::phase1_corruptor adv;
///   nab::core::session s(cfg, faults, &adv);
///   auto report = s.run_instance({0xCAFE, 0xBABE});
///   // report.agreement && report.validity hold in every instance.

#include "core/adversary.hpp"
#include "core/capacity.hpp"
#include "core/certify.hpp"
#include "core/coding.hpp"
#include "core/dispute.hpp"
#include "core/equality_check.hpp"
#include "core/omega.hpp"
#include "core/phase1.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "core/strategies.hpp"
#include "core/value.hpp"
