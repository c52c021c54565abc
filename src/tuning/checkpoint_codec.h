// Token-stream codec for tuner checkpoint blobs.
//
// SMAC, the only tuner a served run uses, serializes its search state into
// a whitespace-separated token stream. Two requirements shape the format:
//
//   1. Exactness. Resume must be bit-identical for SMAC's deterministic EI
//      path, so doubles are encoded as C99 hexfloats ("%a") which round-trip
//      losslessly — ParamConfig::ToString's "%.12g" would drift in the last
//      ulps and derail the search. Configs are therefore re-encoded here
//      value by value instead of reusing ToString/FromString.
//   2. Robustness. A checkpoint that fails to parse for any reason is
//      treated as absent (the tuner starts fresh), so every Read* helper
//      returns false instead of crashing on truncated or foreign input.
#ifndef SMARTML_TUNING_CHECKPOINT_CODEC_H_
#define SMARTML_TUNING_CHECKPOINT_CODEC_H_

#include <sstream>
#include <string>

#include "src/tuning/param_space.h"

namespace smartml {

/// Lossless round-trip encoding of a double (C99 hexfloat; "nan"/"inf" pass
/// through strtod unchanged).
std::string CkptDouble(double v);

/// Parses a CkptDouble token (also accepts plain decimal). False when the
/// token is not a complete number.
bool CkptParseDouble(const std::string& token, double* out);

/// Appends "cfg <n> {d|i|c} <name> <value> ..." for every value in `config`.
/// Names and choice values are percent-encoded into whitespace-free tokens,
/// so any string round-trips.
void CkptAppendConfig(const ParamConfig& config, std::ostringstream* out);

/// Reads a CkptAppendConfig stanza from `in`. False on any mismatch.
bool CkptReadConfig(std::istringstream* in, ParamConfig* out);

}  // namespace smartml

#endif  // SMARTML_TUNING_CHECKPOINT_CODEC_H_
