"""Setuptools entry point.

Kept alongside ``pyproject.toml`` so that ``pip install -e .`` works in
offline environments whose setuptools predates PEP 660 editable installs.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="AWDIT reproduction: an optimal weak database isolation tester (PLDI 2025)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    entry_points={"console_scripts": ["awdit = repro.cli:run"]},
)
