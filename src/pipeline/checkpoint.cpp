#include "pipeline/checkpoint.hpp"

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

/// A checkpoint's scalar fields, in the order the writer emits them.
struct Field {
  std::string_view name;
  std::uint64_t Checkpoint::*member;
  bool since_v2;  ///< absent from v1 files
};
constexpr Field kFields[] = {
    {"inode", &Checkpoint::inode, false},
    {"offset", &Checkpoint::offset, false},
    {"sig_len", &Checkpoint::sig_len, true},
    {"sig_hash", &Checkpoint::sig_hash, true},
    {"lines", &Checkpoint::lines, false},
    {"parsed", &Checkpoint::parsed, false},
    {"skipped", &Checkpoint::skipped, false},
    {"rotations", &Checkpoint::rotations, false},
    {"truncations", &Checkpoint::truncations, false},
    {"lost_incarnations", &Checkpoint::lost_incarnations, true},
};

/// Reserve headroom for a document's fixed members, one log entry's scalar
/// fields, and the closing newline (numbers are at most 20 digits). With
/// it each document, blob included, is written without a reallocation.
constexpr std::size_t kMembersBytes = 512;

void write_fields(core::JsonWriter& json, const Checkpoint& cp) {
  for (const Field& f : kFields) json.key(f.name).value(cp.*f.member);
}

/// The one reader of a checkpoint's scalar fields, for the standalone file
/// and for every log entry of a session file: each field the schema has
/// (v1, or `v2` and later) must be present as an unsigned integer.
std::optional<Checkpoint> read_fields(const core::JsonValue& obj, bool v2) {
  Checkpoint cp;
  for (const Field& f : kFields) {
    if (f.since_v2 && !v2) continue;
    const core::JsonValue* value = obj.find(f.name);
    if (value == nullptr || !value->is_number() || value->as_double() < 0.0)
      return std::nullopt;
    cp.*f.member = value->as_u64();
  }
  return cp;
}

/// The decoded state blob (empty when absent), read without copying the
/// base64 text; nullopt when it does not decode.
std::optional<std::string> read_state(const core::JsonValue& doc) {
  const core::JsonValue* b64 = doc.find("state_b64");
  return util::base64_decode(b64 ? b64->as_string_view() : "");
}

// Each document is written into one string reserved up front, the blob
// base64-encoded straight into it and a file's newline appended in place,
// so the multi-megabyte blob is never copied.

std::string checkpoint_json(const Checkpoint& cp, bool newline) {
  std::string out;
  out.reserve(kMembersBytes + util::base64_size(cp.state.size()));
  core::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value(kSchema);
  write_fields(json, cp);
  json.key("state_b64").value_base64(cp.state);
  json.end_object();
  if (newline) out += '\n';
  return out;
}

std::string session_json(const TailSessionState& session, bool newline) {
  std::size_t size = kMembersBytes + util::base64_size(session.state.size());
  for (const auto& entry : session.logs) {
    // Escaping grows a byte to at most six ("\u001f").
    size += kMembersBytes + 6 * entry.first.size();
  }
  std::string out;
  out.reserve(size);
  core::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value(kSessionSchema);
  json.key("logs").begin_array();
  for (const auto& [path, cp] : session.logs) {
    json.begin_object();
    json.key("path").value(path);
    write_fields(json, cp);
    json.end_object();
  }
  json.end_array();
  json.key("state_b64").value_base64(session.state);
  json.end_object();
  if (newline) out += '\n';
  return out;
}

}  // namespace

std::string Checkpoint::to_json() const {
  return checkpoint_json(*this, /*newline=*/false);
}

std::optional<Checkpoint> Checkpoint::from_json(std::string_view json) {
  const auto doc = core::parse_json(json);
  if (!doc) return std::nullopt;
  const std::string schema = doc->string_or("schema", "");
  const bool v3 = schema == kSchema;
  const bool v2 = v3 || schema == kSchemaV2;
  if (!v2 && schema != kSchemaV1) return std::nullopt;
  auto cp = read_fields(*doc, v2);
  if (cp && v3) {
    // A missing or undecodable blob degrades to a cold (but valid) resume:
    // the ingest offset must survive state-blob damage.
    if (auto bytes = read_state(*doc)) cp->state = std::move(*bytes);
  }
  return cp;
}

bool Checkpoint::save(const std::string& path) const {
  return util::write_file_atomic(path,
                                 checkpoint_json(*this, /*newline=*/true));
}

std::optional<Checkpoint> Checkpoint::load(const std::string& path) {
  const auto text = util::read_file(path);
  if (!text) return std::nullopt;
  return from_json(*text);
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
    auto cp = read_fields(entry, /*v2=*/true);
    if (path.empty() || !cp) return std::nullopt;
    session.logs.emplace_back(std::move(path), std::move(*cp));
  }
  auto bytes = read_state(*doc);
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
  const auto text = util::read_file(path);
  if (!text) return std::nullopt;
  return from_json(*text);
}

}  // namespace divscrape::pipeline
