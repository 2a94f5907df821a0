#include "httplog/http.hpp"

namespace divscrape::httplog {

std::string_view to_string(HttpMethod m) noexcept {
  switch (m) {
    case HttpMethod::kGet: return "GET";
    case HttpMethod::kPost: return "POST";
    case HttpMethod::kHead: return "HEAD";
    case HttpMethod::kPut: return "PUT";
    case HttpMethod::kDelete: return "DELETE";
    case HttpMethod::kOptions: return "OPTIONS";
    case HttpMethod::kPatch: return "PATCH";
    case HttpMethod::kConnect: return "CONNECT";
    case HttpMethod::kTrace: return "TRACE";
    case HttpMethod::kOther: return "-";
  }
  return "-";
}

HttpMethod parse_method(std::string_view token) noexcept {
  if (token == "GET") return HttpMethod::kGet;
  if (token == "POST") return HttpMethod::kPost;
  if (token == "HEAD") return HttpMethod::kHead;
  if (token == "PUT") return HttpMethod::kPut;
  if (token == "DELETE") return HttpMethod::kDelete;
  if (token == "OPTIONS") return HttpMethod::kOptions;
  if (token == "PATCH") return HttpMethod::kPatch;
  if (token == "CONNECT") return HttpMethod::kConnect;
  if (token == "TRACE") return HttpMethod::kTrace;
  return HttpMethod::kOther;
}

std::string_view reason_phrase(int status) noexcept {
  switch (status) {
    case 100: return "Continue";
    case 101: return "Switching Protocols";
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 204: return "No content";
    case 206: return "Partial Content";
    case 301: return "Moved Permanently";
    case 302: return "Found";
    case 303: return "See Other";
    case 304: return "Not modified";
    case 307: return "Temporary Redirect";
    case 308: return "Permanent Redirect";
    case 400: return "Bad request";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "Not found";
    case 405: return "Method Not Allowed";
    case 406: return "Not Acceptable";
    case 408: return "Request Timeout";
    case 410: return "Gone";
    case 412: return "Precondition Failed";
    case 413: return "Payload Too Large";
    case 414: return "URI Too Long";
    case 418: return "I'm a teapot";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "";
  }
}

std::string status_label(int status) {
  const auto phrase = reason_phrase(status);
  std::string out = std::to_string(status);
  if (!phrase.empty()) {
    out += " (";
    out += phrase;
    out += ')';
  }
  return out;
}

}  // namespace divscrape::httplog
