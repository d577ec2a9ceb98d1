#!/usr/bin/env python3
"""Print the MAC profile of every catalog graph, and of the three decoder
blocks at a few widths with their ordering by cost."""

import argparse

from handkit import profiler


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolution", type=int, default=256)
    args = parser.parse_args()

    for name, builder in profiler.CATALOG.items():
        report = profiler.profile(builder(), args.resolution)
        print(report.to_text())

    for channels in (16, 64, 256):
        print(f"decoder blocks @ {channels} channels, 8x8 input")
        totals = {}
        for variant in ("A", "B", "C"):
            report = profiler.profile(profiler.decoder_block(variant, channels), 8)
            print(report.to_text())
            totals[variant] = report.total_macs
        print("ordering " + " < ".join(sorted(totals, key=totals.get)) + "\n")


if __name__ == "__main__":
    main()
