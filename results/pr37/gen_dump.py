#!/usr/bin/env python3
"""Writes a synthetic MediaWiki XML dump for ingestion timing.

Usage: gen_dump.py PAGES SEED OUT.xml [--delta EVERY DELTA.xml]

Each page has one or two tables under distinct captions, so every staged
attribute name is unique, and 6-9 revisions whose columns grow by a few
values per revision. With --delta, every EVERY-th page is also written to
DELTA.xml with its full history extended by two revisions: the input of
`tind update` over the dataset `tind ingest` makes of OUT.xml.
"""
import datetime
import random
import sys


def revisions(rng, page, extra):
    n = 6 + rng.randrange(4)
    tables = 1 + rng.randrange(2)
    start = datetime.date(2002, 1, 1) + datetime.timedelta(days=rng.randrange(2000))
    pools = [[f"v{rng.randrange(60000)}" for _ in range(40)] for _ in range(tables * 2)]
    out = []
    for r in range(n + extra):
        day = start + datetime.timedelta(days=30 * r + rng.randrange(20))
        text = []
        for t in range(tables):
            rows = 4 + 2 * r
            caption = "ABC"[t]
            text.append(f"{{|\n|+ Table {caption}\n! Name !! Team\n")
            for i in range(min(rows, 40)):
                text.append(f"|-\n| [[{pools[2 * t][i]}]] || {pools[2 * t + 1][i]}\n")
            text.append("|}\n")
        out.append((day, "".join(text)))
    return out


def page_xml(page, revs):
    parts = [f"<page><title>Page {page}</title><id>{page}</id>"]
    for day, text in revs:
        text = text.replace("&", "&amp;").replace("<", "&lt;")
        parts.append(
            f"<revision><timestamp>{day.isoformat()}T12:00:00Z</timestamp>"
            f"<text>{text}</text></revision>"
        )
    parts.append("</page>\n")
    return "".join(parts)


def main():
    pages, seed, out = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
    every, delta_out = None, None
    if len(sys.argv) > 4 and sys.argv[4] == "--delta":
        every, delta_out = int(sys.argv[5]), sys.argv[6]
    base = open(out, "w")
    delta = open(delta_out, "w") if delta_out else None
    base.write("<mediawiki>\n")
    if delta:
        delta.write("<mediawiki>\n")
    for page in range(1, pages + 1):
        state = random.Random(seed * 1_000_003 + page).getstate()
        rng = random.Random()
        rng.setstate(state)
        base.write(page_xml(page, revisions(rng, page, 0)))
        if delta and page % every == 0:
            rng.setstate(state)
            delta.write(page_xml(page, revisions(rng, page, 2)))
    base.write("</mediawiki>\n")
    if delta:
        delta.write("</mediawiki>\n")


main()
