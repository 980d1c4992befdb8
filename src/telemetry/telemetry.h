#pragma once

/**
 * @file
 * Umbrella header for the telemetry subsystem: scoped-span tracing
 * (TELEMETRY_SPAN), counters and histograms (TELEMETRY_COUNT,
 * TELEMETRY_HIST), chrome://tracing export, and the process metric
 * registry.
 *
 * Configure with the CMake option SECEMB_TELEMETRY (default ON). When OFF,
 * every macro expands to ((void)0) and instrumented code pays nothing; the
 * runtime API (Registry, CollectSpans, ...) still links but records
 * nothing. When ON, telemetry::SetEnabled(false) is the runtime kill
 * switch.
 *
 * Instrumentation rule (obliviousness-preserving observability): a probe
 * may fire per call, per row, or per public shape — never conditionally on
 * a secret index or on data derived from one. telemetry_test.cc enforces
 * this by recording the memory trace of the oblivious paths with telemetry
 * ON vs OFF and asserting bit-identical traces.
 */

#include "telemetry/metrics.h"
#include "telemetry/tracer.h"
