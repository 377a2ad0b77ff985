"""Setup shim for environments without the `wheel` package (offline CI).

`pip install -e . --no-build-isolation` falls back to this legacy path;
all real metadata lives in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    # version comes from repro.__version__ via pyproject's dynamic metadata
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)
