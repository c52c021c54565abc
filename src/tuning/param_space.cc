#include "src/tuning/param_space.h"

#include <algorithm>
#include <cmath>

#include "src/common/strings.h"

namespace smartml {

double ParamConfig::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (const double* d = std::get_if<double>(&it->second)) return *d;
  if (const int64_t* i = std::get_if<int64_t>(&it->second)) {
    return static_cast<double>(*i);
  }
  return fallback;
}

int64_t ParamConfig::GetInt(const std::string& name, int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (const int64_t* i = std::get_if<int64_t>(&it->second)) return *i;
  if (const double* d = std::get_if<double>(&it->second)) {
    return static_cast<int64_t>(std::llround(*d));
  }
  return fallback;
}

std::string ParamConfig::GetChoice(const std::string& name,
                                   const std::string& fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (const std::string* s = std::get_if<std::string>(&it->second)) return *s;
  return fallback;
}

std::string ParamConfig::ToString() const {
  std::string out;
  for (const auto& [key, value] : values_) {
    if (!out.empty()) out += ";";
    out += key;
    out += "=";
    if (const double* d = std::get_if<double>(&value)) {
      out += StrFormat("%.12g", *d);
    } else if (const int64_t* i = std::get_if<int64_t>(&value)) {
      out += StrFormat("%lldL", static_cast<long long>(*i));
    } else {
      out += std::get<std::string>(value);
    }
  }
  return out;
}

StatusOr<ParamConfig> ParamConfig::FromString(const std::string& text) {
  ParamConfig config;
  if (StripAsciiWhitespace(text).empty()) return config;
  for (const std::string& item : Split(text, ';')) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("ParamConfig: missing '=' in '" + item +
                                     "'");
    }
    const std::string key(StripAsciiWhitespace(item.substr(0, eq)));
    const std::string raw(StripAsciiWhitespace(item.substr(eq + 1)));
    if (key.empty()) {
      return Status::InvalidArgument("ParamConfig: empty key");
    }
    if (!raw.empty() && raw.back() == 'L') {
      double v;
      if (ParseDouble(raw.substr(0, raw.size() - 1), &v)) {
        config.SetInt(key, static_cast<int64_t>(std::llround(v)));
        continue;
      }
    }
    double v;
    if (ParseDouble(raw, &v)) {
      config.SetDouble(key, v);
    } else {
      config.SetChoice(key, raw);
    }
  }
  return config;
}

ParamSpace& ParamSpace::AddDouble(const std::string& name, double min_value,
                                  double max_value, double default_value,
                                  bool log_scale) {
  ParamSpec spec;
  spec.name = name;
  spec.type = ParamType::kDouble;
  spec.min_value = min_value;
  spec.max_value = max_value;
  spec.default_double = default_value;
  spec.log_scale = log_scale;
  specs_.push_back(std::move(spec));
  LinkParents();
  return *this;
}

ParamSpace& ParamSpace::AddInt(const std::string& name, int64_t min_value,
                               int64_t max_value, int64_t default_value,
                               bool log_scale) {
  ParamSpec spec;
  spec.name = name;
  spec.type = ParamType::kInt;
  spec.min_value = static_cast<double>(min_value);
  spec.max_value = static_cast<double>(max_value);
  spec.default_int = default_value;
  spec.log_scale = log_scale;
  specs_.push_back(std::move(spec));
  LinkParents();
  return *this;
}

ParamSpace& ParamSpace::AddCategorical(const std::string& name,
                                       std::vector<std::string> choices,
                                       const std::string& default_choice) {
  ParamSpec spec;
  spec.name = name;
  spec.type = ParamType::kCategorical;
  spec.choices = std::move(choices);
  spec.default_choice = default_choice;
  specs_.push_back(std::move(spec));
  LinkParents();
  return *this;
}

ParamSpace& ParamSpace::Condition(const std::string& name,
                                  const std::string& parent,
                                  std::vector<std::string> parent_values) {
  for (auto& spec : specs_) {
    if (spec.name == name) {
      spec.parent = parent;
      spec.parent_values = std::move(parent_values);
      break;
    }
  }
  LinkParents();
  return *this;
}

size_t ParamSpace::NumCategorical() const {
  size_t n = 0;
  for (const auto& s : specs_) {
    if (s.type == ParamType::kCategorical) ++n;
  }
  return n;
}

size_t ParamSpace::NumNumeric() const {
  return specs_.size() - NumCategorical();
}

const ParamSpec* ParamSpace::Find(const std::string& name) const {
  for (const auto& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

ParamConfig ParamSpace::DefaultConfig() const {
  ParamConfig config;
  for (const auto& spec : specs_) {
    switch (spec.type) {
      case ParamType::kDouble:
        config.SetDouble(spec.name, spec.default_double);
        break;
      case ParamType::kInt:
        config.SetInt(spec.name, spec.default_int);
        break;
      case ParamType::kCategorical:
        config.SetChoice(spec.name, spec.default_choice);
        break;
    }
  }
  return config;
}

namespace {

double SampleNumeric(const ParamSpec& spec, Rng* rng) {
  if (spec.log_scale) {
    const double lo = std::log(std::max(spec.min_value, 1e-12));
    const double hi = std::log(std::max(spec.max_value, 1e-12));
    return std::exp(rng->Uniform(lo, hi));
  }
  return rng->Uniform(spec.min_value, spec.max_value);
}

double PerturbNumeric(const ParamSpec& spec, double current, Rng* rng) {
  // Gaussian move with sigma = 20% of the (log-)range, clamped.
  if (spec.log_scale) {
    const double lo = std::log(std::max(spec.min_value, 1e-12));
    const double hi = std::log(std::max(spec.max_value, 1e-12));
    double x = std::log(std::clamp(current, std::max(spec.min_value, 1e-12),
                                   spec.max_value));
    x += rng->Normal() * 0.2 * (hi - lo);
    return std::exp(std::clamp(x, lo, hi));
  }
  double x = current + rng->Normal() * 0.2 * (spec.max_value - spec.min_value);
  return std::clamp(x, spec.min_value, spec.max_value);
}

// Per-spec kernels. Every ParamConfig and flat-row operation of ParamSpace
// goes through these, on a spec's flat value: the number, the integer, or
// the choice index (-1 for a choice outside the domain).

double SampleValue(const ParamSpec& spec, Rng* rng) {
  switch (spec.type) {
    case ParamType::kDouble:
      return SampleNumeric(spec, rng);
    case ParamType::kInt:
      return static_cast<double>(std::llround(SampleNumeric(spec, rng)));
    case ParamType::kCategorical:
      return static_cast<double>(rng->UniformInt(spec.choices.size()));
  }
  return 0.0;
}

// SMAC's local-search move of one value. A categorical with fewer than two
// choices cannot move and draws nothing.
double PerturbValue(const ParamSpec& spec, double current, Rng* rng) {
  switch (spec.type) {
    case ParamType::kDouble:
      return PerturbNumeric(spec, current, rng);
    case ParamType::kInt: {
      const auto cur = static_cast<int64_t>(current);
      int64_t v = std::llround(PerturbNumeric(spec, current, rng));
      // Guarantee the neighbour actually moves for small integer ranges.
      if (v == cur) v += rng->Bernoulli(0.5) ? 1 : -1;
      return static_cast<double>(
          std::clamp<int64_t>(v, static_cast<int64_t>(spec.min_value),
                              static_cast<int64_t>(spec.max_value)));
    }
    case ParamType::kCategorical: {
      if (spec.choices.size() <= 1) return current;
      double next = current;
      while (next == current) {
        next = static_cast<double>(rng->UniformInt(spec.choices.size()));
      }
      return next;
    }
  }
  return current;
}

// Surrogate encoding: numerics normalized to [0,1] (log-scale aware),
// categoricals as choice index (0 outside the domain), inactive as -1.
double EncodeValue(const ParamSpec& spec, double value, bool active) {
  if (!active) return -1.0;
  if (spec.type == ParamType::kCategorical) return value < 0.0 ? 0.0 : value;
  double lo = spec.min_value, hi = spec.max_value;
  if (spec.log_scale) {
    lo = std::log(std::max(lo, 1e-12));
    hi = std::log(std::max(hi, 1e-12));
    value = std::log(std::max(value, 1e-12));
  }
  return hi > lo ? std::clamp((value - lo) / (hi - lo), 0.0, 1.0) : 0.0;
}

// Activation of a conditional spec given its parent's choice ("" when
// absent).
bool ActiveUnder(const ParamSpec& spec, const std::string& parent_value) {
  return std::find(spec.parent_values.begin(), spec.parent_values.end(),
                   parent_value) != spec.parent_values.end();
}

// The flat value of `spec` in `config`; missing keys read as the default.
double ValueOf(const ParamSpec& spec, const ParamConfig& config) {
  switch (spec.type) {
    case ParamType::kDouble:
      return config.GetDouble(spec.name, spec.default_double);
    case ParamType::kInt:
      return static_cast<double>(config.GetInt(spec.name, spec.default_int));
    case ParamType::kCategorical: {
      const std::string c = config.GetChoice(spec.name, spec.default_choice);
      const auto it = std::find(spec.choices.begin(), spec.choices.end(), c);
      return it == spec.choices.end()
                 ? -1.0
                 : static_cast<double>(it - spec.choices.begin());
    }
  }
  return 0.0;
}

// Stores flat `value` as `spec`'s entry of `config` (an out-of-domain
// choice index stores the default choice).
void SetValue(const ParamSpec& spec, double value, ParamConfig* config) {
  switch (spec.type) {
    case ParamType::kDouble:
      config->SetDouble(spec.name, value);
      break;
    case ParamType::kInt:
      config->SetInt(spec.name, static_cast<int64_t>(value));
      break;
    case ParamType::kCategorical:
      config->SetChoice(spec.name,
                        value < 0.0 || value >= static_cast<double>(
                                                   spec.choices.size())
                            ? spec.default_choice
                            : spec.choices[static_cast<size_t>(value)]);
      break;
  }
}

}  // namespace

ParamConfig ParamSpace::Sample(Rng* rng) const {
  ParamConfig config;
  for (const auto& spec : specs_) {
    SetValue(spec, SampleValue(spec, rng), &config);
  }
  return config;
}

ParamConfig ParamSpace::Neighbor(const ParamConfig& base, Rng* rng) const {
  if (specs_.empty()) return base;
  ParamConfig out = base;
  const ParamSpec& spec = specs_[rng->UniformInt(specs_.size())];
  if (spec.type == ParamType::kCategorical && spec.choices.size() <= 1) {
    return out;
  }
  SetValue(spec, PerturbValue(spec, ValueOf(spec, base), rng), &out);
  return out;
}

bool ParamSpace::IsActive(const ParamSpec& spec,
                          const ParamConfig& config) const {
  return spec.parent.empty() ||
         ActiveUnder(spec, config.GetChoice(spec.parent, ""));
}

std::vector<double> ParamSpace::Encode(const ParamConfig& config) const {
  std::vector<double> out;
  out.reserve(specs_.size());
  for (const auto& spec : specs_) {
    out.push_back(
        EncodeValue(spec, ValueOf(spec, config), IsActive(spec, config)));
  }
  return out;
}

uint64_t ParamSpace::FiniteSize() const {
  constexpr uint64_t kLimit = uint64_t{1} << 53;
  uint64_t size = 1;
  for (const auto& spec : specs_) {
    uint64_t count = 0;
    if (spec.type == ParamType::kCategorical) {
      count = spec.choices.size();
    } else if (spec.type == ParamType::kInt &&
               spec.max_value >= spec.min_value) {
      count = static_cast<uint64_t>(spec.max_value - spec.min_value) + 1;
    }
    if (count == 0 || count > kLimit / size) return 0;
    size *= count;
  }
  return size;
}

void ParamSpace::SampleRow(Rng* rng, double* row) const {
  for (size_t i = 0; i < specs_.size(); ++i) {
    row[i] = SampleValue(specs_[i], rng);
  }
}

void ParamSpace::NeighborRow(const double* base, double* out,
                             Rng* rng) const {
  std::copy(base, base + specs_.size(), out);
  if (specs_.empty()) return;
  const size_t i = rng->UniformInt(specs_.size());
  out[i] = PerturbValue(specs_[i], base[i], rng);
}

void ParamSpace::EncodeRow(const double* row, double* out) const {
  static const std::string kAbsent;
  for (size_t i = 0; i < specs_.size(); ++i) {
    const ParamSpec& spec = specs_[i];
    bool active = true;
    if (!spec.parent.empty()) {
      const int p = parent_index_[i];
      const double code = p < 0 ? -1.0 : row[p];
      active = ActiveUnder(
          spec, code < 0.0 ? kAbsent
                           : specs_[static_cast<size_t>(p)]
                                 .choices[static_cast<size_t>(code)]);
    }
    out[i] = EncodeValue(spec, row[i], active);
  }
}

std::vector<double> ParamSpace::ToRow(const ParamConfig& config) const {
  std::vector<double> row(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    row[i] = ValueOf(specs_[i], config);
  }
  return row;
}

ParamConfig ParamSpace::FromRow(const double* row) const {
  ParamConfig config;
  for (size_t i = 0; i < specs_.size(); ++i) {
    SetValue(specs_[i], row[i], &config);
  }
  return config;
}

void ParamSpace::LinkParents() {
  parent_index_.assign(specs_.size(), -1);
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].parent.empty()) continue;
    const ParamSpec* parent = Find(specs_[i].parent);
    if (parent != nullptr && parent->type == ParamType::kCategorical) {
      parent_index_[i] = static_cast<int>(parent - specs_.data());
    }
  }
}

ParamConfig ParamSpace::Repair(const ParamConfig& config) const {
  ParamConfig out;
  for (const auto& spec : specs_) {
    switch (spec.type) {
      case ParamType::kDouble: {
        double v = config.GetDouble(spec.name, spec.default_double);
        out.SetDouble(spec.name,
                      std::clamp(v, spec.min_value, spec.max_value));
        break;
      }
      case ParamType::kInt: {
        int64_t v = config.GetInt(spec.name, spec.default_int);
        out.SetInt(spec.name, std::clamp<int64_t>(
                                  v, static_cast<int64_t>(spec.min_value),
                                  static_cast<int64_t>(spec.max_value)));
        break;
      }
      case ParamType::kCategorical: {
        std::string c = config.GetChoice(spec.name, spec.default_choice);
        if (std::find(spec.choices.begin(), spec.choices.end(), c) ==
            spec.choices.end()) {
          c = spec.default_choice;
        }
        out.SetChoice(spec.name, c);
        break;
      }
    }
  }
  return out;
}

}  // namespace smartml
