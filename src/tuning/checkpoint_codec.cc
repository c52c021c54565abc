#include "src/tuning/checkpoint_codec.h"

#include <cstdio>
#include <cstdlib>

namespace smartml {

namespace {

// Percent-encodes `s` into a single whitespace-free token ("" becomes the
// marker "%-", which cannot be produced by the escaper otherwise).
std::string CkptToken(const std::string& s) {
  if (s.empty()) return "%-";
  std::string out;
  out.reserve(s.size());
  for (const unsigned char c : s) {
    if (c > ' ' && c < 0x7F && c != '%') {
      out.push_back(static_cast<char>(c));
    } else {
      char esc[4];
      std::snprintf(esc, sizeof(esc), "%%%02X", c);
      out += esc;
    }
  }
  return out;
}

// Inverse of CkptToken. False on malformed escapes.
bool CkptParseToken(const std::string& token, std::string* out) {
  if (token == "%-") {
    out->clear();
    return true;
  }
  out->clear();
  out->reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out->push_back(token[i]);
      continue;
    }
    if (i + 2 >= token.size()) return false;
    const auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    const int hi = hex(token[i + 1]), lo = hex(token[i + 2]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return true;
}

}  // namespace

std::string CkptDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool CkptParseDouble(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

void CkptAppendConfig(const ParamConfig& config, std::ostringstream* out) {
  *out << "cfg " << config.values().size();
  for (const auto& [name, value] : config.values()) {
    if (std::holds_alternative<double>(value)) {
      *out << " d " << CkptToken(name) << ' '
           << CkptDouble(std::get<double>(value));
    } else if (std::holds_alternative<int64_t>(value)) {
      *out << " i " << CkptToken(name) << ' ' << std::get<int64_t>(value);
    } else {
      *out << " c " << CkptToken(name) << ' '
           << CkptToken(std::get<std::string>(value));
    }
  }
  *out << '\n';
}

bool CkptReadConfig(std::istringstream* in, ParamConfig* out) {
  std::string tag;
  size_t count = 0;
  if (!(*in >> tag >> count) || tag != "cfg" || count > 10000) return false;
  *out = ParamConfig();
  for (size_t i = 0; i < count; ++i) {
    std::string type, name_token, name;
    if (!(*in >> type >> name_token) || !CkptParseToken(name_token, &name)) {
      return false;
    }
    if (type == "d") {
      std::string value_token;
      double value = 0.0;
      if (!(*in >> value_token) || !CkptParseDouble(value_token, &value)) {
        return false;
      }
      out->SetDouble(name, value);
    } else if (type == "i") {
      int64_t value = 0;
      if (!(*in >> value)) return false;
      out->SetInt(name, value);
    } else if (type == "c") {
      std::string value_token, value;
      if (!(*in >> value_token) || !CkptParseToken(value_token, &value)) {
        return false;
      }
      out->SetChoice(name, value);
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace smartml
