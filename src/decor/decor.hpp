// Umbrella header: the DECOR public API.
//
//   decor::core   — parameters, deployment engines, restoration pipelines
//   decor::coverage — coverage maps, metrics, redundancy analysis
//   decor::lds    — Halton / Hammersley / random point generators
//   decor::sim    — discrete-event WSN simulator
//   decor::net    — protocol components (discovery, heartbeat, election)
//   decor::geom   — plane geometry and spatial indexes
//
// Quickstart:
//
//   decor::common::Rng rng(42);
//   decor::core::DecorParams params;          // paper defaults: 100x100,
//   params.k = 3;                             // 2000 Halton points, rs=4
//   decor::core::Field field(params, rng);
//   field.deploy_random(200, rng);
//   auto result = decor::core::grid_decor(field, rng);
//   // result.total_nodes(), field.map.fraction_covered(3), ...
#pragma once

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "coverage/benefit_index.hpp"
#include "coverage/coverage_map.hpp"
#include "coverage/metrics.hpp"
#include "coverage/redundancy.hpp"
#include "coverage/sensor.hpp"
#include "decor/deployment.hpp"
#include "decor/engines.hpp"
#include "decor/params.hpp"
#include "decor/point_field.hpp"
#include "decor/restoration.hpp"
#include "decor/sim_runner.hpp"
#include "geometry/disc.hpp"
#include "geometry/grid_partition.hpp"
#include "geometry/point.hpp"
#include "geometry/rect.hpp"
#include "lds/discrepancy.hpp"
#include "lds/halton.hpp"
#include "lds/hammersley.hpp"
#include "lds/random_points.hpp"
#include "sim/world.hpp"
