#include "pipeline/checkpoint.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "core/json.hpp"
#include "core/json_parse.hpp"
#include "util/atomic_file.hpp"
#include "util/state.hpp"

namespace divscrape::pipeline {

namespace {

constexpr std::string_view kSchema = "divscrape.checkpoint.v3";
// v2 lacked the detection-state blob; v1 additionally lacked sig_len/
// sig_hash/lost_incarnations. Both still load (see the compat matrix in
// the header): missing fields default to 0 / empty = cold detection.
constexpr std::string_view kSchemaV2 = "divscrape.checkpoint.v2";
constexpr std::string_view kSchemaV1 = "divscrape.checkpoint.v1";

constexpr std::string_view kSessionSchema = "divscrape.tail_session.v3";

// Finds `"key":` in a flat JSON object and parses the following bare
// unsigned number.
std::optional<std::uint64_t> find_u64(std::string_view json,
                                      std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  const auto begin = json.data() + pos + needle.size();
  const auto end = json.data() + json.size();
  std::uint64_t value = 0;
  const auto parsed = std::from_chars(begin, end, value);
  if (parsed.ec != std::errc{}) return std::nullopt;
  return value;
}

// Finds `"key":"..."` in a flat JSON object. Only safe for values with no
// escapes — base64 qualifies (its alphabet holds no '"' or '\\').
std::optional<std::string_view> find_str(std::string_view json,
                                         std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const auto pos = json.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  const auto begin = pos + needle.size();
  const auto close = json.find('"', begin);
  if (close == std::string_view::npos) return std::nullopt;
  return json.substr(begin, close - begin);
}

// The writers build each document in one pass into one string reserved
// up front: the base64 blob is encoded straight into it (its alphabet
// needs no JSON escaping) and a file's trailing newline is appended in
// place, so the multi-megabyte blob is never copied. The bytes are the
// ones core::JsonWriter produced (compact, members in this order), so
// the schemas are unchanged; tests/pipeline_checkpoint_test.cpp pins them.

/// Room for a document's fixed members, one log entry's scalar fields, and
/// the closing newline (numbers are at most 20 digits).
constexpr std::size_t kMembersBytes = 512;

void append_u64(std::string& out, std::uint64_t value) {
  char digits[20];
  const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  out.append(digits, end);
}

// The checkpoint's scalar fields, each with its leading comma — shared
// between the standalone serialization and the per-log embeddings inside
// a TailSessionState.
void append_fields(std::string& out, const Checkpoint& cp) {
  const std::pair<std::string_view, std::uint64_t> fields[] = {
      {"inode", cp.inode},
      {"offset", cp.offset},
      {"sig_len", cp.sig_len},
      {"sig_hash", cp.sig_hash},
      {"lines", cp.lines},
      {"parsed", cp.parsed},
      {"skipped", cp.skipped},
      {"rotations", cp.rotations},
      {"truncations", cp.truncations},
      {"lost_incarnations", cp.lost_incarnations},
  };
  for (const auto& [name, value] : fields) {
    out += ",\"";
    out += name;
    out += "\":";
    append_u64(out, value);
  }
}

// The closing member shared by both documents, then the closing brace.
void append_state(std::string& out, std::string_view state) {
  out += ",\"state_b64\":\"";
  util::base64_append(out, state);
  out += "\"}";
}

std::string checkpoint_json(const Checkpoint& cp, bool newline) {
  std::string out;
  out.reserve(kMembersBytes + util::base64_size(cp.state.size()));
  out += "{\"schema\":\"";
  out += kSchema;
  out += '"';
  append_fields(out, cp);
  append_state(out, cp.state);
  if (newline) out += '\n';
  return out;
}

std::string session_json(const TailSessionState& session, bool newline) {
  std::size_t size = kMembersBytes + util::base64_size(session.state.size());
  for (const auto& entry : session.logs) {
    // json_escape grows a byte to at most six ("\u001f").
    size += kMembersBytes + 6 * entry.first.size();
  }
  std::string out;
  out.reserve(size);
  out += "{\"schema\":\"";
  out += kSessionSchema;
  out += "\",\"logs\":[";
  for (std::size_t i = 0; i < session.logs.size(); ++i) {
    const auto& [path, cp] = session.logs[i];
    out += i == 0 ? "{\"path\":\"" : ",{\"path\":\"";
    out += core::json_escape(path);
    out += '"';
    append_fields(out, cp);
    out += '}';
  }
  out += ']';
  append_state(out, session.state);
  if (newline) out += '\n';
  return out;
}

// Reads the scalar fields back from a parsed DOM object (TailSessionState
// embeddings; the standalone path keeps the flat scanner for v1/v2 files).
Checkpoint checkpoint_from_dom(const core::JsonValue& obj) {
  Checkpoint cp;
  cp.inode = obj.u64_or("inode", 0);
  cp.offset = obj.u64_or("offset", 0);
  cp.sig_len = obj.u64_or("sig_len", 0);
  cp.sig_hash = obj.u64_or("sig_hash", 0);
  cp.lines = obj.u64_or("lines", 0);
  cp.parsed = obj.u64_or("parsed", 0);
  cp.skipped = obj.u64_or("skipped", 0);
  cp.rotations = obj.u64_or("rotations", 0);
  cp.truncations = obj.u64_or("truncations", 0);
  cp.lost_incarnations = obj.u64_or("lost_incarnations", 0);
  return cp;
}

}  // namespace

std::string Checkpoint::to_json() const {
  return checkpoint_json(*this, /*newline=*/false);
}

std::optional<Checkpoint> Checkpoint::from_json(std::string_view json) {
  const auto has_schema = [&](std::string_view schema) {
    return json.find("\"schema\":\"" + std::string(schema) + "\"") !=
           std::string_view::npos;
  };
  const bool v3 = has_schema(kSchema);
  const bool v2 = v3 || has_schema(kSchemaV2);
  if (!v2 && !has_schema(kSchemaV1)) return std::nullopt;
  Checkpoint cp;
  const auto inode = find_u64(json, "inode");
  const auto offset = find_u64(json, "offset");
  const auto lines = find_u64(json, "lines");
  const auto parsed = find_u64(json, "parsed");
  const auto skipped = find_u64(json, "skipped");
  const auto rotations = find_u64(json, "rotations");
  const auto truncations = find_u64(json, "truncations");
  if (!inode || !offset || !lines || !parsed || !skipped || !rotations ||
      !truncations)
    return std::nullopt;
  cp.inode = *inode;
  cp.offset = *offset;
  cp.lines = *lines;
  cp.parsed = *parsed;
  cp.skipped = *skipped;
  cp.rotations = *rotations;
  cp.truncations = *truncations;
  if (v2) {
    const auto sig_len = find_u64(json, "sig_len");
    const auto sig_hash = find_u64(json, "sig_hash");
    const auto lost = find_u64(json, "lost_incarnations");
    if (!sig_len || !sig_hash || !lost) return std::nullopt;
    cp.sig_len = *sig_len;
    cp.sig_hash = *sig_hash;
    cp.lost_incarnations = *lost;
  }
  if (v3) {
    // A missing or undecodable blob degrades to a cold (but valid) resume:
    // the ingest offset must survive state-blob damage.
    if (const auto b64 = find_str(json, "state_b64")) {
      if (auto bytes = util::base64_decode(*b64)) cp.state = std::move(*bytes);
    }
  }
  return cp;
}

bool Checkpoint::save(const std::string& path) const {
  return util::write_file_atomic(path,
                                 checkpoint_json(*this, /*newline=*/true));
}

std::optional<Checkpoint> Checkpoint::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  return from_json(text.str());
}

std::string TailSessionState::to_json() const {
  return session_json(*this, /*newline=*/false);
}

std::optional<TailSessionState> TailSessionState::from_json(
    std::string_view json) {
  const auto doc = core::parse_json(json);
  if (!doc || !doc->is_object()) return std::nullopt;
  if (doc->string_or("schema", "") != kSessionSchema) return std::nullopt;
  const core::JsonValue* logs = doc->find("logs");
  if (!logs || !logs->is_array()) return std::nullopt;
  TailSessionState session;
  for (const core::JsonValue& entry : logs->array()) {
    if (!entry.is_object()) return std::nullopt;
    std::string path = entry.string_or("path", "");
    if (path.empty()) return std::nullopt;
    session.logs.emplace_back(std::move(path), checkpoint_from_dom(entry));
  }
  const auto bytes = util::base64_decode(doc->string_or("state_b64", ""));
  if (!bytes) return std::nullopt;
  session.state = std::move(*bytes);
  return session;
}

bool TailSessionState::save(const std::string& path) const {
  return util::write_file_atomic(path,
                                 session_json(*this, /*newline=*/true));
}

std::optional<TailSessionState> TailSessionState::load(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  return from_json(text.str());
}

}  // namespace divscrape::pipeline
