"""The line-by-line dataset parser, kept as the reference for
``tubalgcn.data.parse_dataset``: every line is stripped and classified in a
Python loop.  The parse-equality tests require the library parser to give
the same N, T and columns, or the same error message, on any file whose
headers put no whitespace between the name and ``=`` (the reference reads
``#nodes = 10`` as a comment, the library as a header)."""

from tubalgcn.data import DynamicGraphDataset, _BadObservation, _first_bad_line, _load_rows


def _header_value(path, lineno: int, body: str, name: str) -> int:
    try:
        value = int(body[len(name) + 1 :])
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed #{name}= header") from None
    if value < 1:
        raise ValueError(f"{path}:{lineno}: #{name}= must be at least 1, got {value}")
    return value


def parse_dataset(path) -> DynamicGraphDataset:
    """Load a dataset file; N and T come from headers or observed maxima.

    Errors name the file and the physical line (comments and blank lines
    count).  Lines that do not parse are reported first; after that, the
    first line that breaks a dataset rule.
    """
    n_header = None
    t_header = None
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is not text
        try:
            lines = [line.strip() for line in fh.read().split("\n")]
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    data_lines = []  # index into ``lines`` of every data line
    for k, line in enumerate(lines):
        if not line:
            continue
        if not line.startswith("#"):
            data_lines.append(k)
            continue
        body = line[1:].strip()
        if body.startswith("nodes="):
            n_header = _header_value(path, k + 1, body, "nodes")
        elif body.startswith("slots="):
            t_header = _header_value(path, k + 1, body, "slots")
    data = [lines[k] for k in data_lines]
    try:
        rows = _load_rows(data)
    except ValueError:
        k = data_lines[_first_bad_line(data)]
        n_fields = len(lines[k].split("\t"))
        if n_fields != 4:
            raise ValueError(f"{path}:{k + 1}: expected 4 tab-separated fields, got {n_fields}") from None
        raise ValueError(
            f"{path}:{k + 1}: malformed line: expected integer t, src, dst and a decimal weight, "
            f"got {lines[k]!r}"
        ) from None
    if not len(rows) and (n_header is None or t_header is None):
        raise ValueError(f"{path}: empty dataset without #nodes=/#slots= headers")
    n = n_header if n_header is not None else int(max(rows["i"].max(), rows["j"].max())) + 1
    t = t_header if t_header is not None else int(rows["t"].max())
    try:
        return DynamicGraphDataset(n, t, rows["t"], rows["i"], rows["j"], rows["y"])
    except _BadObservation as exc:
        raise ValueError(f"{path}:{data_lines[exc.row] + 1}: {exc.reason}") from None
