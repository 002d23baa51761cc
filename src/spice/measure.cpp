#include "spice/measure.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "spice/units.hpp"

namespace autockt::spice {

double ac_crossing_freq(const std::vector<AcPoint>& sweep, std::size_t i,
                        double level) {
  const double m0 = std::abs(sweep[i].value);
  const double m1 = std::abs(sweep[i + 1].value);
  const double lf0 = std::log10(sweep[i].freq);
  const double lf1 = std::log10(sweep[i + 1].freq);
  const double lm0 = std::log10(std::max(m0, 1e-30));
  const double lm1 = std::log10(std::max(m1, 1e-30));
  const double lt = std::log10(std::max(level, 1e-30));
  if (lm1 == lm0) {
    // Flat in log space. The exactly-flat segment has no unique crossing;
    // report its geometric midpoint. A segment flat only after the log
    // clamp/rounding still carries magnitude information — interpolate
    // linearly in magnitude instead of snapping to the left endpoint.
    if (m1 == m0) return std::pow(10.0, 0.5 * (lf0 + lf1));
    const double frac = std::clamp((level - m0) / (m1 - m0), 0.0, 1.0);
    return std::pow(10.0, lf0 + frac * (lf1 - lf0));
  }
  const double frac = (lt - lm0) / (lm1 - lm0);
  return std::pow(10.0, lf0 + frac * (lf1 - lf0));
}

AcMeasurements measure_ac(const std::vector<AcPoint>& sweep) {
  AcMeasurements m;
  if (sweep.size() < 2) return m;

  m.dc_gain = std::abs(sweep.front().value);

  // Peak magnitude: the -3 dB reference. For a monotone-from-DC response the
  // peak is the first sample and behaviour matches the DC-referenced search.
  std::size_t peak_idx = 0;
  m.peak_gain = m.dc_gain;
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    const double mag = std::abs(sweep[i].value);
    if (mag > m.peak_gain) {
      m.peak_gain = mag;
      peak_idx = i;
    }
  }

  // Unwrapped phase in degrees, relative to the first point.
  std::vector<double> phase(sweep.size(), 0.0);
  double prev = std::arg(sweep.front().value);
  double offset = 0.0;
  phase[0] = 0.0;
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    double ph = std::arg(sweep[i].value);
    while (ph + offset - prev > kPi) offset -= 2.0 * kPi;
    while (ph + offset - prev < -kPi) offset += 2.0 * kPi;
    const double unwrapped = ph + offset;
    phase[i] = (unwrapped - std::arg(sweep.front().value)) * 180.0 / kPi;
    prev = unwrapped;
  }

  // -3 dB cutoff: first downward crossing of peak/sqrt(2) at or after the
  // peak (a dip before the peak is not the bandwidth edge).
  const double level3db = m.peak_gain / std::sqrt(2.0);
  for (std::size_t i = peak_idx; i + 1 < sweep.size(); ++i) {
    const double m0 = std::abs(sweep[i].value);
    const double m1 = std::abs(sweep[i + 1].value);
    if (m0 >= level3db && m1 < level3db) {
      m.f3db = ac_crossing_freq(sweep, i, level3db);
      m.f3db_found = true;
      break;
    }
  }

  // Unity-gain crossing and phase margin.
  if (m.dc_gain > 1.0) {
    for (std::size_t i = 0; i + 1 < sweep.size(); ++i) {
      const double m0 = std::abs(sweep[i].value);
      const double m1 = std::abs(sweep[i + 1].value);
      if (m0 >= 1.0 && m1 < 1.0) {
        m.ugbw = ac_crossing_freq(sweep, i, 1.0);
        m.ugbw_found = true;
        // Linear-in-log-f phase interpolation at the crossing.
        const double lf0 = std::log10(sweep[i].freq);
        const double lf1 = std::log10(sweep[i + 1].freq);
        const double frac =
            lf1 == lf0 ? 0.0 : (std::log10(m.ugbw) - lf0) / (lf1 - lf0);
        const double ph = phase[i] + frac * (phase[i + 1] - phase[i]);
        m.phase_margin_deg = 180.0 + ph;
        break;
      }
    }
  }
  return m;
}

SettlingResult measure_settling(const std::vector<double>& time,
                                const std::vector<double>& waveform,
                                double tol, double min_dwell_fraction) {
  SettlingResult r;
  if (time.size() < 2 || waveform.size() != time.size()) return r;
  const double v_final = waveform.back();
  const double v_initial = waveform.front();
  const double amplitude = std::fabs(v_final - v_initial);
  if (amplitude < 1e-15) {
    r.settled = true;  // nothing moved; trivially settled at the start
    return r;
  }
  const double band = tol * amplitude;

  // Walk backwards: the settling instant is the last time the waveform was
  // outside the band. (The final sample is inside by construction, so the
  // instant always lands strictly before time.back().)
  std::size_t settle_idx = 0;
  for (std::size_t i = waveform.size(); i-- > 0;) {
    if (std::fabs(waveform[i] - v_final) > band) {
      settle_idx = i + 1;
      break;
    }
  }
  r.time = settle_idx == 0 ? time.front() : time[settle_idx];

  // Trust check: a waveform that leaves the band within the last sliver of
  // the window never demonstrated a final value — it was simply truncated
  // ("settled at the last sample" is indistinguishable from "never
  // settled" without this dwell requirement).
  const double window = time.back() - time.front();
  r.settled = (time.back() - r.time) >= min_dwell_fraction * window;
  return r;
}

}  // namespace autockt::spice
