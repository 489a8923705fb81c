#pragma once

#include "sim/options.hpp"

/// The paper's experiments, one entry point each. bench/bench_paper.cpp maps
/// an id to each of them; every one prints its tables to stdout and, with
/// --csv=DIR, writes them as CSV too.
namespace faultroute::paper {

void e1_hypercube_phase(const sim::Options& options);       // Theorem 3
void e2_hypercube_ball(const sim::Options& options);        // Lemma 5
void e3_mesh_routing(const sim::Options& options);          // Theorem 4
void e4_e5_double_tree(const sim::Options& options);        // Lemma 6, Theorems 7, 9
void e6_gnp_routing(const sim::Options& options);           // Theorems 10, 11
void e7_giant_component(const sim::Options& options);       // percolation thresholds
void e8_extension_topologies(const sim::Options& options);  // Section 6 families
void e9_chemical_distance(const sim::Options& options);     // Lemma 8
void e10_distortion(const sim::Options& options);           // metric distortion
void e11_oracle_hypercube(const sim::Options& options);     // Section 6 conjecture
void a1_a3_ablations(const sim::Options& options);          // design ablations
void t1_traffic(const sim::Options& options);               // many-message traffic

}  // namespace faultroute::paper
