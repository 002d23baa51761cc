#pragma once
// Specification extraction from analysis results: the quantities the paper's
// environments observe (gain, unity-gain bandwidth, phase margin, -3 dB
// cutoff, settling time).

#include <cstddef>
#include <vector>

#include "spice/ac.hpp"
#include "spice/transient.hpp"

namespace autockt::spice {

struct AcMeasurements {
  double dc_gain = 0.0;           // |H| at the lowest swept frequency (V/V)
  double peak_gain = 0.0;         // max |H| over the sweep (== dc_gain when
                                  // the response is monotone from DC)
  double f3db = 0.0;              // -3 dB cutoff (Hz); 0 if not found
  double ugbw = 0.0;              // unity-gain frequency (Hz); 0 if |H| < 1
  double phase_margin_deg = 0.0;  // 180 + unwrapped relative phase at UGBW
  bool ugbw_found = false;
  bool f3db_found = false;
};

/// Extracts gain/bandwidth/phase metrics from a log-spaced AC sweep. Phase
/// is unwrapped and referenced to the lowest-frequency point, so inverting
/// and non-inverting amplifiers measure the same phase margin. The -3 dB
/// cutoff is referenced to the PEAK magnitude and searched from the peak
/// onward, so peaked (|H| rising above DC) responses report the true
/// bandwidth edge instead of a level derived from the smaller DC gain.
AcMeasurements measure_ac(const std::vector<AcPoint>& sweep);

/// Interpolated frequency where |H| crosses `level` between samples i and
/// i+1 (log-log interpolation; linear-in-magnitude fallback when the segment
/// is flat in log space, geometric midpoint when it is exactly flat).
/// Exposed for regression tests of the degenerate-segment handling.
double ac_crossing_freq(const std::vector<AcPoint>& sweep, std::size_t i,
                        double level);

/// Settling measurement with an explicit trust flag.
struct SettlingResult {
  /// Instant from which the waveform stays within the band.
  double time = 0.0;
  /// True only when the window demonstrably captured settling: the waveform
  /// enters the +/- tol band around its final sample and dwells there for a
  /// meaningful fraction of the window. False when the waveform is still
  /// moving at (or near) the window end — the "final value" is then just
  /// wherever the transient was truncated, and `time` is a lower bound, not
  /// a measurement.
  bool settled = false;
};

/// Time for waveform to enter and stay within +/- tol * |step amplitude| of
/// its final value. `min_dwell_fraction` is the fraction of the window the
/// waveform must spend inside the band after the settling instant for the
/// measurement to count as settled.
SettlingResult measure_settling(const std::vector<double>& time,
                                const std::vector<double>& waveform,
                                double tol = 0.02,
                                double min_dwell_fraction = 0.05);

}  // namespace autockt::spice
