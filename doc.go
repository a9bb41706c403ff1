// Package privanalyzer is a from-scratch Go reproduction of "PrivAnalyzer:
// Measuring the Efficacy of Linux Privilege Use" (Criswell, Zhou, Gravani,
// Hu — DSN 2019).
//
// PrivAnalyzer measures how effectively programs use Linux privileges
// (capabilities). It combines three components, each reimplemented here as a
// library package:
//
//   - AutoPriv (internal/autopriv): whole-program static privilege-liveness
//     analysis over a compiler IR (internal/ir), inserting priv_remove calls
//     where privileges become dead.
//   - ChronoPriv (internal/chronopriv): dynamic counting of the
//     instructions executed under each combination of permitted privilege
//     set and process credentials, charged per basic-block segment by an IR
//     interpreter (internal/interp) over a simulated Linux kernel
//     (internal/vkernel).
//   - ROSA (internal/rosa): a bounded model checker for the Linux system-call
//     API built on a miniature Maude term rewriting engine
//     (internal/rewrite), deciding whether an attacker exploiting the program
//     under a given privilege set could reach a compromised system state.
//
// The pipeline is assembled in internal/core; the paper's five test programs
// and two refactored variants are modeled in internal/programs; the four
// attack scenarios in internal/attacks. The benchmarks in bench_test.go
// regenerate every table and figure of the paper's evaluation; see DESIGN.md
// and EXPERIMENTS.md.
package privanalyzer
