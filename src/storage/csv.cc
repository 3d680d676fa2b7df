#include "storage/csv.h"

#include <filesystem>
#include <fstream>
#include <system_error>

namespace queryer {

namespace {

// Parses one CSV record starting at `pos` into `fields`; advances `pos`
// past the record's trailing newline. Handles quoted fields with embedded
// delimiters/newlines and doubled quotes. `fields` is caller-owned and
// reused across records, so its strings keep their capacity and a record
// costs no allocation once the buffers have grown.
Status ParseRecord(std::string_view text, std::size_t* pos, char delimiter,
                   std::vector<std::string>* fields) {
  std::size_t count = 0;
  auto next_field = [&]() -> std::string* {
    if (count == fields->size()) fields->emplace_back();
    std::string* field = &(*fields)[count++];
    field->clear();
    return field;
  };
  std::string* field = next_field();
  bool in_quotes = false;
  std::size_t i = *pos;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          *field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        *field += c;
      }
    } else if (c == '"') {
      if (!field->empty()) {
        return Status::ParseError("quote inside unquoted CSV field");
      }
      in_quotes = true;
    } else if (c == delimiter) {
      field = next_field();
    } else if (c == '\r') {
      // Swallow; handled with the following '\n' (or ignored).
    } else if (c == '\n') {
      ++i;
      break;
    } else {
      *field += c;
    }
  }
  if (in_quotes) return Status::ParseError("unterminated quoted CSV field");
  fields->resize(count);
  *pos = i;
  return Status::OK();
}

std::string EscapeField(std::string_view field, char delimiter) {
  bool needs_quotes = field.find(delimiter) != std::string::npos ||
                      field.find('"') != std::string::npos ||
                      field.find('\n') != std::string::npos ||
                      field.find('\r') != std::string::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Result<TablePtr> ReadCsvString(std::string_view text, std::string table_name,
                               const CsvOptions& options) {
  std::size_t pos = 0;
  std::vector<std::string> header;
  if (options.has_header) {
    if (pos >= text.size()) return Status::ParseError("empty CSV input");
    QUERYER_RETURN_NOT_OK(ParseRecord(text, &pos, options.delimiter, &header));
  }

  // Records stream straight into the TableBuilder (one dictionary-encode
  // pass, no row-major staging buffer) through one reused field vector. A
  // headerless file needs its first record parsed before the schema arity
  // is known.
  std::vector<std::string> record;
  bool has_first = false;
  if (!options.has_header) {
    std::size_t arity = 1;
    if (pos < text.size()) {
      QUERYER_RETURN_NOT_OK(
          ParseRecord(text, &pos, options.delimiter, &record));
      has_first = !(record.size() == 1 && record[0].empty());
      if (has_first) arity = record.size();
    }
    for (std::size_t i = 0; i < arity; ++i) header.push_back("c" + std::to_string(i));
  }

  QUERYER_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(header)));
  TableBuilder builder(std::move(table_name), std::move(schema));
  if (has_first) QUERYER_RETURN_NOT_OK(builder.AddRow(record));
  while (pos < text.size()) {
    QUERYER_RETURN_NOT_OK(ParseRecord(text, &pos, options.delimiter, &record));
    // Skip blank trailing lines.
    if (record.size() == 1 && record[0].empty()) continue;
    QUERYER_RETURN_NOT_OK(builder.AddRow(record));
  }
  return builder.Build();
}

Result<TablePtr> ReadCsvFile(const std::string& path, std::string table_name,
                             const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open file: " + path);
  // The file is read into one buffer of its exact size. file_size also
  // rejects a directory, which ifstream opens without complaint.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) {
    return Status::IoError("cannot read file: " + path + ": " +
                           error.message());
  }
  std::string text(size, '\0');
  if (!in.read(text.data(), static_cast<std::streamsize>(size))) {
    return Status::IoError("read failed: " + path);
  }
  return ReadCsvString(text, std::move(table_name), options);
}

std::string WriteCsvString(const Table& table, const CsvOptions& options) {
  std::string out;
  const Schema& schema = table.schema();
  for (std::size_t i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) out += options.delimiter;
    out += EscapeField(schema.name(i), options.delimiter);
  }
  out += '\n';
  for (EntityId id = 0; id < table.num_rows(); ++id) {
    for (std::size_t i = 0; i < table.num_attributes(); ++i) {
      if (i > 0) out += options.delimiter;
      out += EscapeField(table.ValueAt(id, i), options.delimiter);
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open file for writing: " + path);
  out << WriteCsvString(table, options);
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace queryer
